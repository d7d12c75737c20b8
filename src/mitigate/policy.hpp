// VerdictPolicy: the mitigation decision core, decoupled from containers.
//
// The hysteresis ladder (strikes to limit/ACL/quarantine, clean windows to
// pardon, TTL'd ACL expiry) plus its deterministic ActionLog, extracted
// from MitigationController so two drivers can share it byte-identically:
//
//  * MitigationController — the original container app: buffers verdict
//    events from the RealTimeIds bus and feeds the policy at its window
//    tick, enforcing through one EdgeFilter and the testbed's
//    crash/restart quarantine hooks;
//  * ShardIdsPipeline — the sharded detection pipeline: feeds the policy
//    at the bounded-lag window barrier and enforces through every shard's
//    edge filters at once.
//
// The policy itself never touches a simulator: callers pass the decision
// instant (`now_ns`) explicitly and own all scheduling (probation timers).
// Enforcement is a set of pluggable hooks; every decision is appended to
// the ActionLog in call order, so for a fixed event stream the log is
// byte-identical regardless of the driver.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "ids/realtime_ids.hpp"
#include "util/sim_time.hpp"

namespace ddoshield::mitigate {

enum class ActionType : std::uint8_t {
  kSynCookiesOn,      // arg: watermark (0 = stack default)
  kRateLimitInstall,  // arg: packets/sec
  kRateLimitRelease,  // arg: clean windows observed
  kAclInstall,        // arg: TTL in ns
  kAclRelease,        // arg: clean windows observed
  kAclExpire,         // arg: TTL in ns
  kQuarantine,        // arg: device index
  kProbationRejoin,   // arg: device index
  kModelSwap,         // arg: new model version (lifecycle hot-swap)
};

const char* to_string(ActionType t);

/// One enforcement decision; only deterministic fields.
struct Action {
  std::int64_t t_ns = 0;
  std::uint64_t window_index = 0;
  ActionType type = ActionType::kSynCookiesOn;
  std::uint32_t src_addr = 0;  // 0 for host-wide actions (SYN cookies)
  std::uint64_t arg = 0;

  std::string to_line() const;
};

/// Append-only record of every action; the mitigation analogue of the
/// testkit EventLog (byte-identical across same-seed runs).
class ActionLog {
 public:
  void append(Action a) { actions_.push_back(a); }
  const std::vector<Action>& actions() const { return actions_; }
  std::size_t size() const { return actions_.size(); }
  std::vector<std::string> lines() const;
  /// All lines joined with '\n' (replay comparisons).
  std::string joined() const;

 private:
  std::vector<Action> actions_;
};

struct MitigationConfig {
  // Mechanism switches — all enforcement is opt-in per mechanism; with the
  // controller never deployed, behavior is bit-identical to main.
  bool enable_rate_limit = true;
  bool enable_acl = true;
  bool enable_syn_cookies = true;
  bool enable_quarantine = false;  // crashing devices is drastic; opt in

  // When is a source "flagged" in a window: at least min_packets rows and
  // at least suspect_share of them called malicious. The volume floor is
  // what separates bots (hundreds of rows per window) from benign clients
  // that merely share a flood window with them.
  double suspect_share = 0.5;
  std::uint32_t min_packets = 64;

  // Hysteresis ladder (strikes = flagged windows, not necessarily
  // consecutive; clean windows below the flag bar reset nothing until
  // clean_windows_to_release of them arrive in a row).
  std::uint32_t strikes_to_limit = 1;
  std::uint32_t strikes_to_acl = 3;
  std::uint32_t strikes_to_quarantine = 6;
  std::uint32_t clean_windows_to_release = 3;

  // Enforcement parameters.
  double limit_pps = 50.0;
  double limit_burst = 25.0;
  util::SimTime acl_ttl = util::SimTime::seconds(10);
  util::SimTime probation = util::SimTime::seconds(8);
  std::size_t syn_cookie_watermark = 0;  // 0 = stack default (backlog/2)
};

class VerdictPolicy {
 public:
  struct Hooks {
    std::function<void(std::uint32_t src_addr)> install_acl;
    std::function<void(std::uint32_t src_addr)> remove_acl;
    std::function<void(std::uint32_t src_addr, double pps, double burst)> install_limit;
    std::function<void(std::uint32_t src_addr)> remove_limit;
    /// Attempts to quarantine (crash) the device behind the address;
    /// returns false when the address is no quarantineable device. On
    /// true the policy marks the source quarantined; the caller owns
    /// scheduling the probation rejoin() timer.
    std::function<bool(std::uint32_t src_addr)> quarantine;
  };

  VerdictPolicy(MitigationConfig cfg, std::uint32_t protected_addr)
      : cfg_{cfg}, protected_addr_{protected_addr} {}

  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }

  /// Releases every ACL whose TTL elapsed by now_ns (call first at each
  /// window boundary — expiry is what re-tests a blocked source).
  void expire_acls(std::int64_t now_ns, std::uint64_t window_index);

  /// Walks one window's per-source verdicts through the ladder.
  void process_event(const ids::WindowVerdictEvent& event, std::int64_t now_ns);

  /// Probation ended. Returns true when the source was quarantined (the
  /// caller then restarts the device); resets its state to a clean slate.
  bool rejoin(std::uint32_t src_addr, std::uint64_t window_index, std::int64_t now_ns);

  /// Appends a driver-originated action (SYN cookies on, ...).
  void log_action(ActionType type, std::uint64_t window_index, std::uint32_t src_addr,
                  std::uint64_t arg, std::int64_t now_ns);

  const ActionLog& action_log() const { return log_; }
  const MitigationConfig& config() const { return cfg_; }
  std::uint64_t windows_processed() const { return windows_processed_; }
  std::size_t sources_tracked() const { return addrs_.size(); }
  bool is_quarantined(std::uint32_t src_addr) const;
  /// Sources currently behind an ACL / rate limit — the live enforcement
  /// footprint the survival telemetry probes graph over an attack.
  std::size_t active_acls() const { return acl_sources_.size(); }
  std::size_t active_limits() const {
    std::size_t n = 0;
    for (const SourceState& st : states_) n += st.limited;
    return n;
  }

 private:
  struct SourceState {
    std::uint32_t strikes = 0;
    std::uint32_t clean = 0;
    bool limited = false;
    bool acl = false;
    bool quarantined = false;
    std::int64_t acl_expires_ns = 0;
  };

  /// Index of src_addr in addrs_, or addrs_.size() when untracked.
  std::size_t find(std::uint32_t src_addr) const;
  /// Tracks every source of the event not yet in addrs_ (never the
  /// protected address), keeping addrs_/states_ ascending.
  void track_new_sources(const ids::WindowVerdictEvent& event);
  void escalate(std::uint32_t src_addr, SourceState& st, std::uint64_t window_index,
                std::int64_t now_ns);
  void pardon(std::uint32_t src_addr, SourceState& st, std::uint64_t window_index,
              std::int64_t now_ns);

  MitigationConfig cfg_;
  std::uint32_t protected_addr_;
  Hooks hooks_;
  std::uint64_t windows_processed_ = 0;
  std::uint64_t last_model_version_ = 1;  // logs kModelSwap on change
  /// Every tracked source, ascending, with its state at the same index:
  /// a window's sources arrive (mostly) ascending, so the ladder finds
  /// each one by galloping forward from the previous one.
  std::vector<std::uint32_t> addrs_;
  std::vector<SourceState> states_;
  std::vector<std::uint32_t> fresh_;  // scratch: one window's new sources
  /// The sources behind an ACL, ascending like addrs_: expiry walks the
  /// blocked sources, not every tracked one.
  std::set<std::uint32_t> acl_sources_;
  ActionLog log_;
};

}  // namespace ddoshield::mitigate
