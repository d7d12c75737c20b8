// Closed-loop mitigation: from IDS verdicts to enforcement.
//
// The paper's testbed stops at detection; this subsystem closes the loop.
// A MitigationController (an app in the IDS container) subscribes to the
// RealTimeIds verdict bus and drives three enforcement mechanisms:
//
//   * per-source token-bucket rate limiters and ACL drop rules in an
//     EdgeFilter installed at the router's ingress (net::IngressFilter) —
//     the simulated analogue of pushing filters to the victim's edge;
//   * SYN cookies in the victim's TCP stack (TcpHost::set_syn_cookies),
//     self-activating above a half-open watermark;
//   * quarantine of persistently-malicious devices through the testbed's
//     crash/restart hooks, with a scheduled probation rejoin.
//
// The decision logic itself — the hysteresis ladder and its ActionLog —
// lives in VerdictPolicy (policy.hpp) so the sharded detection pipeline
// can drive the identical ladder without a container; this controller
// supplies the event buffering, tick scheduling and enforcement hooks.
//
// Determinism rules (DESIGN.md §12): verdict-sink callbacks only buffer;
// all decisions happen at the controller's window tick, which runs after
// the IDS tick at the same boundary (FIFO seq order), so the window that
// just closed has already published its verdicts. Every action is
// appended to an ActionLog whose lines carry only sim-time and integer
// fields, so same-seed runs replay byte-identically.
//
// Hysteresis: a source must accumulate `strikes_to_*` flagged windows to
// escalate and `clean_windows_to_release` consecutive clean windows to be
// pardoned, so flapping verdicts don't thrash rules. ACLs also expire on a
// TTL: a blocked source is invisible to the sensor, so expiry (fail2ban
// style) is what re-tests it — an offender re-strikes within one window.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "ids/realtime_ids.hpp"
#include "mitigate/policy.hpp"
#include "net/node.hpp"
#include "net/simulator.hpp"
#include "net/tcp.hpp"

namespace ddoshield::mitigate {

/// Ingress filter for the protected service's edge: an ordered ACL set
/// plus per-source token buckets refilled on the simulation clock. Only
/// packets addressed to the protected destination are subject to rules;
/// with no rules installed, on_packet is two branches.
class EdgeFilter : public net::IngressFilter {
 public:
  EdgeFilter(net::Simulator& sim, net::Ipv4Address protected_dst)
      : sim_{sim}, protected_dst_{protected_dst} {}

  net::FilterVerdict on_packet(const net::Packet& pkt) override;

  void install_acl(std::uint32_t src_addr) { acl_.insert(src_addr); }
  void remove_acl(std::uint32_t src_addr) { acl_.erase(src_addr); }
  void install_limit(std::uint32_t src_addr, double pps, double burst);
  void remove_limit(std::uint32_t src_addr) { limits_.erase(src_addr); }

  std::size_t acl_rules() const { return acl_.size(); }
  std::size_t limit_rules() const { return limits_.size(); }
  net::Ipv4Address protected_dst() const { return protected_dst_; }

 private:
  struct TokenBucket {
    double tokens = 0.0;
    double rate_pps = 0.0;
    double burst = 0.0;
    std::int64_t last_refill_ns = 0;
  };

  net::Simulator& sim_;
  net::Ipv4Address protected_dst_;
  std::set<std::uint32_t> acl_;
  std::map<std::uint32_t, TokenBucket> limits_;
};

struct MitigationSummary {
  std::uint64_t windows_processed = 0;
  std::uint64_t actions = 0;
  std::uint64_t rate_limits_installed = 0;
  std::uint64_t acls_installed = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t rejoins = 0;
  std::size_t sources_tracked = 0;
  std::string to_string() const;
};

/// The controller app: buffers verdict events, decides at window ticks,
/// enforces through the filter / TCP stack / quarantine hooks.
class MitigationController : public apps::App {
 public:
  /// Maps a source address to a quarantineable device and crashes it;
  /// returns false when the address is no device (spoofed, attacker) or
  /// the device is already down.
  using QuarantineFn = std::function<bool(std::uint32_t src_addr)>;
  /// Probation ended: restart the device.
  using RejoinFn = std::function<void(std::uint32_t src_addr)>;

  MitigationController(container::Container& owner, util::Rng rng, ids::RealTimeIds& ids,
                       EdgeFilter& filter, net::TcpHost& victim_tcp, MitigationConfig cfg);

  void set_quarantine_hooks(QuarantineFn quarantine, RejoinFn rejoin) {
    quarantine_fn_ = std::move(quarantine);
    rejoin_fn_ = std::move(rejoin);
  }

  const MitigationConfig& config() const { return policy_.config(); }
  const ActionLog& action_log() const { return policy_.action_log(); }
  MitigationSummary summary() const;

 protected:
  void on_start() override;

 private:
  void schedule_tick();
  void tick();

  ids::RealTimeIds& ids_;
  EdgeFilter& filter_;
  net::TcpHost& victim_tcp_;
  QuarantineFn quarantine_fn_;
  RejoinFn rejoin_fn_;

  std::uint64_t current_window_ = 0;
  std::deque<ids::WindowVerdictEvent> inbox_;  // sink buffers; tick drains
  VerdictPolicy policy_;
};

}  // namespace ddoshield::mitigate
