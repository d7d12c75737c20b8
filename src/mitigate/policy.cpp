#include "mitigate/policy.hpp"

#include <algorithm>
#include <cstdio>

#include "net/address.hpp"

namespace ddoshield::mitigate {

namespace {

// Lower bound of key in a[from, end): probes from, then gaps that double,
// then binary-searches the last gap, so a key near the previous one costs
// O(log distance) rather than O(log size).
std::size_t gallop(const std::vector<std::uint32_t>& a, std::size_t from, std::uint32_t key) {
  std::size_t lo = from;
  std::size_t hi = from;
  for (std::size_t step = 1; hi < a.size() && a[hi] < key; step *= 2) {
    lo = hi + 1;
    hi = lo + step;
  }
  hi = std::min(hi, a.size());
  return static_cast<std::size_t>(std::lower_bound(a.data() + lo, a.data() + hi, key) -
                                  a.data());
}

}  // namespace

// ---------------------------------------------------------------------------
// ActionLog
// ---------------------------------------------------------------------------

const char* to_string(ActionType t) {
  switch (t) {
    case ActionType::kSynCookiesOn: return "syn_cookies_on";
    case ActionType::kRateLimitInstall: return "ratelimit_install";
    case ActionType::kRateLimitRelease: return "ratelimit_release";
    case ActionType::kAclInstall: return "acl_install";
    case ActionType::kAclRelease: return "acl_release";
    case ActionType::kAclExpire: return "acl_expire";
    case ActionType::kQuarantine: return "quarantine";
    case ActionType::kProbationRejoin: return "probation_rejoin";
    case ActionType::kModelSwap: return "model_swap";
  }
  return "unknown";
}

std::string Action::to_line() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "t=%lld mitigate action=%s window=%llu src=%s arg=%llu",
                static_cast<long long>(t_ns), to_string(type),
                static_cast<unsigned long long>(window_index),
                net::Ipv4Address{src_addr}.to_string().c_str(),
                static_cast<unsigned long long>(arg));
  return std::string{buf};
}

std::vector<std::string> ActionLog::lines() const {
  std::vector<std::string> out;
  out.reserve(actions_.size());
  for (const auto& a : actions_) out.push_back(a.to_line());
  return out;
}

std::string ActionLog::joined() const {
  std::string out;
  for (const auto& a : actions_) {
    out += a.to_line();
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// VerdictPolicy
// ---------------------------------------------------------------------------

void VerdictPolicy::log_action(ActionType type, std::uint64_t window_index,
                               std::uint32_t src_addr, std::uint64_t arg,
                               std::int64_t now_ns) {
  Action a;
  a.t_ns = now_ns;
  a.window_index = window_index;
  a.type = type;
  a.src_addr = src_addr;
  a.arg = arg;
  log_.append(a);
}

std::size_t VerdictPolicy::find(std::uint32_t src_addr) const {
  const auto it = std::lower_bound(addrs_.begin(), addrs_.end(), src_addr);
  return it != addrs_.end() && *it == src_addr ? static_cast<std::size_t>(it - addrs_.begin())
                                               : addrs_.size();
}

bool VerdictPolicy::is_quarantined(std::uint32_t src_addr) const {
  const std::size_t i = find(src_addr);
  return i != addrs_.size() && states_[i].quarantined;
}

void VerdictPolicy::expire_acls(std::int64_t now_ns, std::uint64_t window_index) {
  // Walks only the ACL'd sources, in the same ascending order as addrs_.
  for (auto it = acl_sources_.begin(); it != acl_sources_.end();) {
    const std::uint32_t addr = *it;
    SourceState& st = states_[find(addr)];
    if (st.acl_expires_ns > now_ns) {
      ++it;
      continue;
    }
    st.acl = false;
    it = acl_sources_.erase(it);
    // Strikes are retained: a repeat offender re-blocks after one window
    // (fail2ban-style), a reformed one climbs down via clean windows.
    if (hooks_.remove_acl) hooks_.remove_acl(addr);
    log_action(ActionType::kAclExpire, window_index, addr,
               static_cast<std::uint64_t>(cfg_.acl_ttl.ns()), now_ns);
  }
}

void VerdictPolicy::track_new_sources(const ids::WindowVerdictEvent& event) {
  // A forward cursor over addrs_, restarted wherever the event steps
  // backwards (the pipelines publish ascending sources; replays and
  // tests may not).
  fresh_.clear();
  std::size_t pos = 0;
  std::uint32_t prev = 0;
  for (const auto& sv : event.sources) {
    if (sv.src_addr == protected_addr_) continue;
    if (sv.src_addr < prev) pos = 0;
    prev = sv.src_addr;
    pos = gallop(addrs_, pos, sv.src_addr);
    if (pos == addrs_.size() || addrs_[pos] != sv.src_addr) fresh_.push_back(sv.src_addr);
  }
  if (fresh_.empty()) return;
  std::sort(fresh_.begin(), fresh_.end());
  fresh_.erase(std::unique(fresh_.begin(), fresh_.end()), fresh_.end());
  // Merge in place from the back: each tracked source moves at most once.
  std::size_t old_left = addrs_.size();
  std::size_t new_left = fresh_.size();
  addrs_.resize(old_left + new_left);
  states_.resize(addrs_.size());
  for (std::size_t out = addrs_.size(); new_left > 0;) {
    --out;
    if (old_left > 0 && addrs_[old_left - 1] > fresh_[new_left - 1]) {
      --old_left;
      addrs_[out] = addrs_[old_left];
      states_[out] = states_[old_left];
    } else {
      --new_left;
      addrs_[out] = fresh_[new_left];
      states_[out] = SourceState{};
    }
  }
}

void VerdictPolicy::process_event(const ids::WindowVerdictEvent& event,
                                  std::int64_t now_ns) {
  ++windows_processed_;
  if (event.model_version != last_model_version_) {
    // Audit-trail the lifecycle hot-swap: enforcement decisions before and
    // after this line were made by different model versions. The version
    // stream is deterministic, so the log stays byte-identical.
    log_action(ActionType::kModelSwap, event.window_index, 0, event.model_version, now_ns);
    last_model_version_ = event.model_version;
  }
  track_new_sources(event);
  // Every source of the event is tracked now; the ladder visits them in
  // the event's order, galloping forward from the previous one.
  std::size_t pos = 0;
  std::uint32_t prev = 0;
  for (const auto& sv : event.sources) {
    // Never blocklist the protected service itself: the tap sees both
    // directions, so the victim's own responses share every flood window's
    // (flagged) statistical features.
    if (sv.src_addr == protected_addr_) continue;
    if (sv.src_addr < prev) pos = 0;
    prev = sv.src_addr;
    pos = gallop(addrs_, pos, sv.src_addr);
    SourceState& st = states_[pos];
    if (st.quarantined) continue;
    const bool flagged =
        sv.packets >= cfg_.min_packets &&
        static_cast<double>(sv.flagged) >= cfg_.suspect_share * static_cast<double>(sv.packets);
    if (flagged) {
      ++st.strikes;
      st.clean = 0;
      escalate(sv.src_addr, st, event.window_index, now_ns);
    } else if (!st.acl) {
      // An ACL'd source is invisible to the tap, so absence of flags while
      // blocked proves nothing; only unblocked clean windows count.
      ++st.clean;
      if (st.clean >= cfg_.clean_windows_to_release)
        pardon(sv.src_addr, st, event.window_index, now_ns);
    }
  }
}

void VerdictPolicy::escalate(std::uint32_t src_addr, SourceState& st,
                             std::uint64_t window_index, std::int64_t now_ns) {
  if (cfg_.enable_quarantine && hooks_.quarantine &&
      st.strikes >= cfg_.strikes_to_quarantine) {
    if (hooks_.quarantine(src_addr)) {
      st.quarantined = true;
      // The device is down; edge rules against it are dead weight.
      if (st.acl) {
        st.acl = false;
        acl_sources_.erase(src_addr);
        if (hooks_.remove_acl) hooks_.remove_acl(src_addr);
        log_action(ActionType::kAclRelease, window_index, src_addr, 0, now_ns);
      }
      if (st.limited) {
        st.limited = false;
        if (hooks_.remove_limit) hooks_.remove_limit(src_addr);
        log_action(ActionType::kRateLimitRelease, window_index, src_addr, 0, now_ns);
      }
      log_action(ActionType::kQuarantine, window_index, src_addr, st.strikes, now_ns);
      return;
    }
    // Not a quarantineable device (spoofed source, external host): fall
    // through to edge enforcement, which works on any address.
  }
  if (cfg_.enable_acl && st.strikes >= cfg_.strikes_to_acl) {
    if (!st.acl) {
      st.acl = true;
      acl_sources_.insert(src_addr);
      st.acl_expires_ns = now_ns + cfg_.acl_ttl.ns();
      if (hooks_.install_acl) hooks_.install_acl(src_addr);
      log_action(ActionType::kAclInstall, window_index, src_addr,
                 static_cast<std::uint64_t>(cfg_.acl_ttl.ns()), now_ns);
      if (st.limited) {
        st.limited = false;
        if (hooks_.remove_limit) hooks_.remove_limit(src_addr);
        log_action(ActionType::kRateLimitRelease, window_index, src_addr, 0, now_ns);
      }
    } else {
      st.acl_expires_ns = now_ns + cfg_.acl_ttl.ns();  // refresh TTL
    }
    return;
  }
  if (cfg_.enable_rate_limit && st.strikes >= cfg_.strikes_to_limit && !st.limited &&
      !st.acl) {
    st.limited = true;
    if (hooks_.install_limit) hooks_.install_limit(src_addr, cfg_.limit_pps, cfg_.limit_burst);
    log_action(ActionType::kRateLimitInstall, window_index, src_addr,
               static_cast<std::uint64_t>(cfg_.limit_pps), now_ns);
  }
}

void VerdictPolicy::pardon(std::uint32_t src_addr, SourceState& st,
                           std::uint64_t window_index, std::int64_t now_ns) {
  st.strikes = 0;
  if (st.limited) {
    st.limited = false;
    if (hooks_.remove_limit) hooks_.remove_limit(src_addr);
    log_action(ActionType::kRateLimitRelease, window_index, src_addr, st.clean, now_ns);
  }
}

bool VerdictPolicy::rejoin(std::uint32_t src_addr, std::uint64_t window_index,
                           std::int64_t now_ns) {
  const std::size_t i = find(src_addr);
  if (i == addrs_.size() || !states_[i].quarantined) return false;
  states_[i] = SourceState{};  // rejoin on probation with a clean slate
  log_action(ActionType::kProbationRejoin, window_index, src_addr, 0, now_ns);
  return true;
}

}  // namespace ddoshield::mitigate
