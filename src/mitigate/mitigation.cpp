#include "mitigate/mitigation.hpp"

#include <algorithm>
#include <cstdio>

#include "net/address.hpp"

namespace ddoshield::mitigate {

using util::SimTime;

// ---------------------------------------------------------------------------
// EdgeFilter
// ---------------------------------------------------------------------------

net::FilterVerdict EdgeFilter::on_packet(const net::Packet& pkt) {
  // Benign-only fast path: no rules installed means two cheap branches.
  if (acl_.empty() && limits_.empty()) return net::FilterVerdict::kAccept;
  if (pkt.dst != protected_dst_) return net::FilterVerdict::kAccept;

  if (acl_.count(pkt.src.bits()) != 0) return net::FilterVerdict::kDropAcl;

  auto it = limits_.find(pkt.src.bits());
  if (it == limits_.end()) return net::FilterVerdict::kAccept;

  TokenBucket& tb = it->second;
  const std::int64_t now_ns = sim_.now().ns();
  if (now_ns > tb.last_refill_ns) {
    const double dt_sec = static_cast<double>(now_ns - tb.last_refill_ns) * 1e-9;
    tb.tokens = std::min(tb.burst, tb.tokens + tb.rate_pps * dt_sec);
    tb.last_refill_ns = now_ns;
  }
  if (tb.tokens >= 1.0) {
    tb.tokens -= 1.0;
    return net::FilterVerdict::kAccept;
  }
  return net::FilterVerdict::kDropRateLimit;
}

void EdgeFilter::install_limit(std::uint32_t src_addr, double pps, double burst) {
  TokenBucket tb;
  tb.rate_pps = pps;
  tb.burst = burst;
  tb.tokens = burst;  // a fresh rule starts full; the flood drains it at once
  tb.last_refill_ns = sim_.now().ns();
  limits_[src_addr] = tb;
}

// ---------------------------------------------------------------------------
// MitigationController
// ---------------------------------------------------------------------------

std::string MitigationSummary::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "mitigation windows=%llu actions=%llu ratelimits=%llu acls=%llu "
                "quarantines=%llu rejoins=%llu sources=%zu",
                static_cast<unsigned long long>(windows_processed),
                static_cast<unsigned long long>(actions),
                static_cast<unsigned long long>(rate_limits_installed),
                static_cast<unsigned long long>(acls_installed),
                static_cast<unsigned long long>(quarantines),
                static_cast<unsigned long long>(rejoins), sources_tracked);
  return std::string{buf};
}

MitigationController::MitigationController(container::Container& owner, util::Rng rng,
                                           ids::RealTimeIds& ids, EdgeFilter& filter,
                                           net::TcpHost& victim_tcp, MitigationConfig cfg)
    : App{owner, "mitigation-controller", std::move(rng)},
      ids_{ids},
      filter_{filter},
      victim_tcp_{victim_tcp},
      policy_{cfg, filter.protected_dst().bits()} {
  VerdictPolicy::Hooks hooks;
  hooks.install_acl = [this](std::uint32_t src) { filter_.install_acl(src); };
  hooks.remove_acl = [this](std::uint32_t src) { filter_.remove_acl(src); };
  hooks.install_limit = [this](std::uint32_t src, double pps, double burst) {
    filter_.install_limit(src, pps, burst);
  };
  hooks.remove_limit = [this](std::uint32_t src) { filter_.remove_limit(src); };
  // The quarantine hook owns the sim-time side of the ladder: crash the
  // device through the testbed hook, and on success schedule the probation
  // rejoin that the policy (simulator-free by design) cannot.
  hooks.quarantine = [this](std::uint32_t src) {
    if (!quarantine_fn_ || !quarantine_fn_(src)) return false;
    schedule(policy_.config().probation, [this, src] {
      if (!policy_.rejoin(src, current_window_, sim().now().ns())) return;
      if (rejoin_fn_) rejoin_fn_(src);
    });
    return true;
  };
  policy_.set_hooks(std::move(hooks));
}

void MitigationController::on_start() {
  // The sink fires inside the IDS's window close; it only buffers. All
  // decisions happen in tick().
  ids_.set_verdict_sink(
      [this](const ids::WindowVerdictEvent& event) { inbox_.push_back(event); });

  const MitigationConfig& cfg = policy_.config();
  if (cfg.enable_syn_cookies) {
    victim_tcp_.set_syn_cookies(true, cfg.syn_cookie_watermark);
    policy_.log_action(ActionType::kSynCookiesOn, 0, 0,
                       static_cast<std::uint64_t>(cfg.syn_cookie_watermark),
                       sim().now().ns());
  }

  const std::int64_t w = ids_.window_period().ns();
  current_window_ = static_cast<std::uint64_t>(sim().now().ns() / w);
  schedule_tick();
}

void MitigationController::schedule_tick() {
  // Fire exactly at the next window boundary. The IDS schedules its own tick
  // for the same instant but earlier (it started first), so FIFO ordering at
  // equal timestamps guarantees window k is closed before we act on it —
  // inductively, because both sides re-schedule from within their ticks.
  const std::int64_t w = ids_.window_period().ns();
  const std::int64_t boundary = static_cast<std::int64_t>(current_window_ + 1) * w;
  schedule(SimTime::nanos(boundary) - sim().now(), [this] { tick(); });
}

void MitigationController::tick() {
  const std::uint64_t closed = current_window_;
  const std::int64_t now_ns = sim().now().ns();

  policy_.expire_acls(now_ns, closed);

  while (!inbox_.empty()) {
    policy_.process_event(inbox_.front(), now_ns);
    inbox_.pop_front();
  }

  ++current_window_;
  schedule_tick();
}

MitigationSummary MitigationController::summary() const {
  MitigationSummary s;
  s.windows_processed = policy_.windows_processed();
  s.actions = policy_.action_log().size();
  for (const auto& a : policy_.action_log().actions()) {
    switch (a.type) {
      case ActionType::kRateLimitInstall: ++s.rate_limits_installed; break;
      case ActionType::kAclInstall: ++s.acls_installed; break;
      case ActionType::kQuarantine: ++s.quarantines; break;
      case ActionType::kProbationRejoin: ++s.rejoins; break;
      default: break;
    }
  }
  s.sources_tracked = policy_.sources_tracked();
  return s;
}

}  // namespace ddoshield::mitigate
