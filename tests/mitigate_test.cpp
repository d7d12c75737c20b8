// Tests for the closed-loop mitigation subsystem: EdgeFilter units (ACL,
// token bucket, protected-destination gate), Node ingress-filter drop
// accounting, and the end-to-end survival experiment — a SYN flood run with
// and without mitigation, asserting the defended run keeps strictly more
// benign connections alive at lower tail latency, and that same-seed
// defended runs produce byte-identical action logs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/testbed.hpp"
#include "features/schema.hpp"
#include "mitigate/mitigation.hpp"
#include "ml/classifier.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/survival.hpp"
#include "util/byte_buffer.hpp"
#include "util/rng.hpp"

namespace ddoshield::mitigate {
namespace {

using util::SimTime;

net::Packet make_packet(net::Ipv4Address src, net::Ipv4Address dst) {
  net::Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.proto = net::IpProto::kTcp;
  pkt.src_port = 5555;
  pkt.dst_port = 80;
  return pkt;
}

// --------------------------------------------------------------------------
// EdgeFilter
// --------------------------------------------------------------------------

TEST(EdgeFilterTest, AclDropsOnlyTrafficToTheProtectedDestination) {
  net::Simulator sim;
  const net::Ipv4Address victim{10, 0, 0, 100};
  const net::Ipv4Address other{10, 0, 0, 50};
  const net::Ipv4Address bot{10, 0, 0, 7};
  EdgeFilter filter{sim, victim};

  EXPECT_EQ(filter.on_packet(make_packet(bot, victim)), net::FilterVerdict::kAccept);

  filter.install_acl(bot.bits());
  EXPECT_EQ(filter.acl_rules(), 1u);
  EXPECT_EQ(filter.on_packet(make_packet(bot, victim)), net::FilterVerdict::kDropAcl);
  // Same source to any other destination passes: the rule guards the edge
  // in front of the victim, not the whole fabric.
  EXPECT_EQ(filter.on_packet(make_packet(bot, other)), net::FilterVerdict::kAccept);
  // Other sources to the victim pass.
  EXPECT_EQ(filter.on_packet(make_packet(other, victim)), net::FilterVerdict::kAccept);

  filter.remove_acl(bot.bits());
  EXPECT_EQ(filter.acl_rules(), 0u);
  EXPECT_EQ(filter.on_packet(make_packet(bot, victim)), net::FilterVerdict::kAccept);
}

TEST(EdgeFilterTest, TokenBucketRefillsOnSimulatedTime) {
  net::Simulator sim;
  const net::Ipv4Address victim{10, 0, 0, 100};
  const net::Ipv4Address bot{10, 0, 0, 7};
  EdgeFilter filter{sim, victim};

  // 10 packets/s, burst of 2: two pass immediately, the third drops.
  filter.install_limit(bot.bits(), 10.0, 2.0);
  EXPECT_EQ(filter.on_packet(make_packet(bot, victim)), net::FilterVerdict::kAccept);
  EXPECT_EQ(filter.on_packet(make_packet(bot, victim)), net::FilterVerdict::kAccept);
  EXPECT_EQ(filter.on_packet(make_packet(bot, victim)), net::FilterVerdict::kDropRateLimit);

  // 100 ms at 10 pps refills exactly one token.
  sim.run_until(SimTime::millis(100));
  EXPECT_EQ(filter.on_packet(make_packet(bot, victim)), net::FilterVerdict::kAccept);
  EXPECT_EQ(filter.on_packet(make_packet(bot, victim)), net::FilterVerdict::kDropRateLimit);

  // A long idle period caps the bucket at its burst, not unbounded credit.
  sim.run_until(SimTime::seconds(60));
  EXPECT_EQ(filter.on_packet(make_packet(bot, victim)), net::FilterVerdict::kAccept);
  EXPECT_EQ(filter.on_packet(make_packet(bot, victim)), net::FilterVerdict::kAccept);
  EXPECT_EQ(filter.on_packet(make_packet(bot, victim)), net::FilterVerdict::kDropRateLimit);

  filter.remove_limit(bot.bits());
  EXPECT_EQ(filter.on_packet(make_packet(bot, victim)), net::FilterVerdict::kAccept);
}

TEST(NodeIngressFilterTest, DropsAreCountedPerNodeAndGlobally) {
  net::Network net;
  net::Node& a = net.add_node("a", net::Ipv4Address{10, 0, 0, 1});
  net::Node& b = net.add_node("b", net::Ipv4Address{10, 0, 0, 2});
  net.add_link(a, b, net::LinkConfig{});
  a.set_default_route(0);
  b.set_default_route(0);

  EdgeFilter filter{net.simulator(), b.address()};
  filter.install_acl(a.address().bits());
  b.set_ingress_filter(&filter);

  auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t acl_before = reg.counter("net.acl_dropped").value();

  std::uint64_t received = 0;
  b.add_tap([&](const net::Packet&, net::TapDirection dir) {
    if (dir == net::TapDirection::kReceived) ++received;
  });
  for (int i = 0; i < 5; ++i) a.send(make_packet(a.address(), b.address()));
  net.simulator().run_all();

  EXPECT_EQ(b.stats().dropped_acl, 5u);
  EXPECT_EQ(b.stats().dropped_ratelimit, 0u);
  EXPECT_EQ(reg.counter("net.acl_dropped").value() - acl_before, 5u);
  EXPECT_EQ(received, 0u) << "filtered packets must not reach taps or the stack";

  b.set_ingress_filter(nullptr);
}

// --------------------------------------------------------------------------
// Action log formatting
// --------------------------------------------------------------------------

TEST(ActionLogTest, LinesAreIntegerOnlyAndStable) {
  Action a;
  a.t_ns = 1'500'000'000;
  a.window_index = 3;
  a.type = ActionType::kAclInstall;
  a.src_addr = net::Ipv4Address{10, 0, 0, 7}.bits();
  a.arg = 10'000'000'000ull;
  EXPECT_EQ(a.to_line(),
            "t=1500000000 mitigate action=acl_install window=3 src=10.0.0.7 arg=10000000000");

  ActionLog log;
  log.append(a);
  a.type = ActionType::kAclExpire;
  log.append(a);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.lines().size(), 2u);
  EXPECT_NE(log.joined().find("acl_expire"), std::string::npos);
}

// --------------------------------------------------------------------------
// VerdictPolicy on a random event stream
// --------------------------------------------------------------------------

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(VerdictPolicyTest, RandomEventStreamReplaysTheRecordedActionLog) {
  // Every rung of the ladder, ACL expiry and probation on a seeded stream
  // of windows whose sources mostly ascend (as the IDS pipelines publish
  // them) but are sometimes shuffled or repeated. The log length and digest
  // were recorded from the std::map-lookup policy with a full-walk expiry;
  // the hinted lookups and the ACL index must reproduce them exactly.
  MitigationConfig cfg;
  cfg.enable_quarantine = true;
  cfg.min_packets = 4;
  cfg.acl_ttl = SimTime::millis(700);
  const std::uint32_t protected_addr = 120;
  VerdictPolicy policy{cfg, protected_addr};
  VerdictPolicy::Hooks hooks;
  std::size_t hook_calls = 0;
  hooks.install_acl = [&hook_calls](std::uint32_t) { ++hook_calls; };
  hooks.remove_acl = [&hook_calls](std::uint32_t) { ++hook_calls; };
  hooks.install_limit = [&hook_calls](std::uint32_t, double, double) { ++hook_calls; };
  hooks.remove_limit = [&hook_calls](std::uint32_t) { ++hook_calls; };
  hooks.quarantine = [](std::uint32_t src) { return src % 5 == 0; };
  policy.set_hooks(std::move(hooks));

  util::Rng rng{31};
  for (std::uint64_t w = 0; w < 400; ++w) {
    const std::int64_t now = static_cast<std::int64_t>(w + 1) * SimTime::millis(100).ns();
    policy.expire_acls(now, w);
    std::vector<std::uint32_t> addrs;
    const std::size_t count = rng.uniform_u64(60);
    for (std::size_t k = 0; k < count; ++k)
      addrs.push_back(100 + static_cast<std::uint32_t>(rng.uniform_u64(300)));
    std::sort(addrs.begin(), addrs.end());
    addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
    if (w % 10 == 9) rng.shuffle(addrs);
    if (w % 13 == 12 && !addrs.empty()) addrs.push_back(addrs.front());
    ids::WindowVerdictEvent event;
    event.window_index = w;
    for (const std::uint32_t a : addrs) {
      ids::SourceVerdict sv{.src_addr = a,
                            .packets = static_cast<std::uint32_t>(rng.uniform_u64(20))};
      // Low addresses flood more often, so every rung gets climbed.
      const bool hot = a < 180 && rng.bernoulli(0.7);
      sv.flagged = hot ? sv.packets : static_cast<std::uint32_t>(rng.uniform_u64(sv.packets + 1));
      event.sources.push_back(sv);
    }
    policy.process_event(event, now);
    if (w % 7 == 6) policy.rejoin(100 + static_cast<std::uint32_t>(rng.uniform_u64(300)), w, now);
  }
  EXPECT_EQ(policy.action_log().size(), 6555u);
  EXPECT_EQ(fnv1a(policy.action_log().joined()), 6940615250353723279u);
  EXPECT_EQ(policy.sources_tracked(), 299u);
  EXPECT_EQ(policy.active_acls(), 37u);
  EXPECT_EQ(policy.active_limits(), 41u);
  EXPECT_EQ(hook_calls, 6492u);
}

// --------------------------------------------------------------------------
// VerdictPolicy vs its std::map predecessor
// --------------------------------------------------------------------------

// The policy as it stood on a std::map<src, SourceState> with hinted
// lookups: the reference the flat ascending arrays must reproduce action
// for action and hook call for hook call. Test-only.
class MapPolicy {
 public:
  MapPolicy(MitigationConfig cfg, std::uint32_t protected_addr, VerdictPolicy::Hooks hooks)
      : cfg_{cfg}, protected_addr_{protected_addr}, hooks_{std::move(hooks)} {}

  void expire_acls(std::int64_t now_ns, std::uint64_t window_index) {
    for (auto it = acl_sources_.begin(); it != acl_sources_.end();) {
      const std::uint32_t addr = *it;
      SourceState& st = sources_.find(addr)->second;
      if (st.acl_expires_ns > now_ns) {
        ++it;
        continue;
      }
      st.acl = false;
      it = acl_sources_.erase(it);
      if (hooks_.remove_acl) hooks_.remove_acl(addr);
      log(ActionType::kAclExpire, window_index, addr,
          static_cast<std::uint64_t>(cfg_.acl_ttl.ns()), now_ns);
    }
  }

  void process_event(const ids::WindowVerdictEvent& event, std::int64_t now_ns) {
    if (event.model_version != last_model_version_) {
      log(ActionType::kModelSwap, event.window_index, 0, event.model_version, now_ns);
      last_model_version_ = event.model_version;
    }
    auto hint = sources_.begin();
    for (const auto& sv : event.sources) {
      if (sv.src_addr == protected_addr_) continue;
      const auto it = sources_.try_emplace(hint, sv.src_addr);
      hint = std::next(it);
      SourceState& st = it->second;
      if (st.quarantined) continue;
      const bool flagged = sv.packets >= cfg_.min_packets &&
                           static_cast<double>(sv.flagged) >=
                               cfg_.suspect_share * static_cast<double>(sv.packets);
      if (flagged) {
        ++st.strikes;
        st.clean = 0;
        escalate(sv.src_addr, st, event.window_index, now_ns);
      } else if (!st.acl) {
        ++st.clean;
        if (st.clean >= cfg_.clean_windows_to_release)
          pardon(sv.src_addr, st, event.window_index, now_ns);
      }
    }
  }

  bool rejoin(std::uint32_t src_addr, std::uint64_t window_index, std::int64_t now_ns) {
    auto it = sources_.find(src_addr);
    if (it == sources_.end() || !it->second.quarantined) return false;
    it->second = SourceState{};
    log(ActionType::kProbationRejoin, window_index, src_addr, 0, now_ns);
    return true;
  }

  bool is_quarantined(std::uint32_t src_addr) const {
    const auto it = sources_.find(src_addr);
    return it != sources_.end() && it->second.quarantined;
  }
  const ActionLog& action_log() const { return log_; }
  std::size_t sources_tracked() const { return sources_.size(); }
  std::size_t active_acls() const { return acl_sources_.size(); }
  std::size_t active_limits() const {
    std::size_t n = 0;
    for (const auto& [src, st] : sources_) n += st.limited;
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

  void log(ActionType type, std::uint64_t window_index, std::uint32_t src_addr,
           std::uint64_t arg, std::int64_t now_ns) {
    log_.append(Action{.t_ns = now_ns,
                       .window_index = window_index,
                       .type = type,
                       .src_addr = src_addr,
                       .arg = arg});
  }

  void escalate(std::uint32_t src_addr, SourceState& st, std::uint64_t window_index,
                std::int64_t now_ns) {
    if (cfg_.enable_quarantine && hooks_.quarantine &&
        st.strikes >= cfg_.strikes_to_quarantine) {
      if (hooks_.quarantine(src_addr)) {
        st.quarantined = true;
        if (st.acl) {
          st.acl = false;
          acl_sources_.erase(src_addr);
          if (hooks_.remove_acl) hooks_.remove_acl(src_addr);
          log(ActionType::kAclRelease, window_index, src_addr, 0, now_ns);
        }
        if (st.limited) {
          st.limited = false;
          if (hooks_.remove_limit) hooks_.remove_limit(src_addr);
          log(ActionType::kRateLimitRelease, window_index, src_addr, 0, now_ns);
        }
        log(ActionType::kQuarantine, window_index, src_addr, st.strikes, now_ns);
        return;
      }
    }
    if (cfg_.enable_acl && st.strikes >= cfg_.strikes_to_acl) {
      if (!st.acl) {
        st.acl = true;
        acl_sources_.insert(src_addr);
        st.acl_expires_ns = now_ns + cfg_.acl_ttl.ns();
        if (hooks_.install_acl) hooks_.install_acl(src_addr);
        log(ActionType::kAclInstall, window_index, src_addr,
            static_cast<std::uint64_t>(cfg_.acl_ttl.ns()), now_ns);
        if (st.limited) {
          st.limited = false;
          if (hooks_.remove_limit) hooks_.remove_limit(src_addr);
          log(ActionType::kRateLimitRelease, window_index, src_addr, 0, now_ns);
        }
      } else {
        st.acl_expires_ns = now_ns + cfg_.acl_ttl.ns();
      }
      return;
    }
    if (cfg_.enable_rate_limit && st.strikes >= cfg_.strikes_to_limit && !st.limited &&
        !st.acl) {
      st.limited = true;
      if (hooks_.install_limit) hooks_.install_limit(src_addr, cfg_.limit_pps, cfg_.limit_burst);
      log(ActionType::kRateLimitInstall, window_index, src_addr,
          static_cast<std::uint64_t>(cfg_.limit_pps), now_ns);
    }
  }

  void pardon(std::uint32_t src_addr, SourceState& st, std::uint64_t window_index,
              std::int64_t now_ns) {
    st.strikes = 0;
    if (st.limited) {
      st.limited = false;
      if (hooks_.remove_limit) hooks_.remove_limit(src_addr);
      log(ActionType::kRateLimitRelease, window_index, src_addr, st.clean, now_ns);
    }
  }

  MitigationConfig cfg_;
  std::uint32_t protected_addr_;
  VerdictPolicy::Hooks hooks_;
  std::uint64_t last_model_version_ = 1;
  std::map<std::uint32_t, SourceState> sources_;
  std::set<std::uint32_t> acl_sources_;
  ActionLog log_;
};

/// Hooks that append every call, in order, to `calls`; the quarantine
/// hook succeeds for every seventh address.
VerdictPolicy::Hooks recording_hooks(std::vector<std::string>& calls) {
  VerdictPolicy::Hooks hooks;
  const auto note = [&calls](const char* what, std::uint32_t src) {
    calls.push_back(std::string{what} + " " + std::to_string(src));
  };
  hooks.install_acl = [note](std::uint32_t src) { note("install_acl", src); };
  hooks.remove_acl = [note](std::uint32_t src) { note("remove_acl", src); };
  hooks.install_limit = [note](std::uint32_t src, double, double) { note("install_limit", src); };
  hooks.remove_limit = [note](std::uint32_t src) { note("remove_limit", src); };
  hooks.quarantine = [note](std::uint32_t src) {
    note("quarantine", src);
    return src % 7 == 0;
  };
  return hooks;
}

class VerdictPolicyOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VerdictPolicyOracleTest, FlatArraysReplayTheMapPolicy) {
  // ~20k sources. Windows are ascending samples with gaps; the address
  // plan opens in three phases (every 4th, every 2nd, then every address)
  // so later windows bring new sources between tracked ones. Some windows
  // are shuffled, some repeat sources, some carry the protected address,
  // and the model version bumps twice. Short ACL TTLs make expiry churn;
  // quarantined sources rejoin on a schedule.
  constexpr std::uint32_t kBase = (10u << 24) | (1u << 16);
  constexpr std::uint32_t kUniverse = 20000;
  const std::uint32_t protected_addr = kBase + 4321;
  MitigationConfig cfg;
  cfg.enable_quarantine = true;
  cfg.min_packets = 4;
  cfg.acl_ttl = SimTime::millis(500);

  std::vector<std::string> flat_calls;
  std::vector<std::string> map_calls;
  VerdictPolicy flat{cfg, protected_addr};
  flat.set_hooks(recording_hooks(flat_calls));
  MapPolicy oracle{cfg, protected_addr, recording_hooks(map_calls)};

  util::Rng rng{GetParam()};
  std::uint64_t model_version = 1;
  std::vector<std::uint32_t> quarantined;
  for (std::uint64_t w = 0; w < 90; ++w) {
    const std::int64_t now = static_cast<std::int64_t>(w + 1) * SimTime::millis(100).ns();
    flat.expire_acls(now, w);
    oracle.expire_acls(now, w);

    const std::uint32_t stride = w < 30 ? 4 : w < 60 ? 2 : 1;
    std::vector<std::uint32_t> addrs;
    const std::size_t count = 1000 + rng.uniform_u64(5000);
    for (std::size_t k = 0; k < count; ++k)
      addrs.push_back(kBase +
                      stride * static_cast<std::uint32_t>(rng.uniform_u64(kUniverse / stride)));
    if (w % 5 == 0) addrs.push_back(protected_addr);
    std::sort(addrs.begin(), addrs.end());
    addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
    if (w % 9 == 8) rng.shuffle(addrs);
    if (w % 7 == 3) {
      for (std::size_t k = 0; k < 50; ++k) addrs.push_back(addrs[rng.uniform_u64(addrs.size())]);
    }
    if (w == 40 || w == 75) ++model_version;

    ids::WindowVerdictEvent event;
    event.window_index = w;
    event.model_version = model_version;
    for (const std::uint32_t a : addrs) {
      ids::SourceVerdict sv{.src_addr = a,
                            .packets = static_cast<std::uint32_t>(rng.uniform_u64(20))};
      // A low block floods most windows, so every rung gets climbed.
      const bool hot = a < kBase + 3000 && rng.bernoulli(0.8);
      sv.flagged = hot ? sv.packets : static_cast<std::uint32_t>(rng.uniform_u64(sv.packets + 1));
      event.sources.push_back(sv);
    }
    const std::size_t map_calls_before = map_calls.size();
    flat.process_event(event, now);
    oracle.process_event(event, now);
    for (std::size_t i = map_calls_before; i < map_calls.size(); ++i) {
      if (map_calls[i].rfind("quarantine ", 0) == 0)
        quarantined.push_back(static_cast<std::uint32_t>(std::stoul(map_calls[i].substr(11))));
    }

    if (w % 3 == 2 && !quarantined.empty()) {
      for (int k = 0; k < 20; ++k) {
        const std::uint32_t src =
            rng.bernoulli(0.5) ? quarantined[rng.uniform_u64(quarantined.size())]
                               : kBase + static_cast<std::uint32_t>(rng.uniform_u64(kUniverse));
        ASSERT_EQ(flat.is_quarantined(src), oracle.is_quarantined(src)) << "window " << w;
        ASSERT_EQ(flat.rejoin(src, w, now), oracle.rejoin(src, w, now)) << "window " << w;
      }
    }
    ASSERT_EQ(flat.sources_tracked(), oracle.sources_tracked()) << "window " << w;
    ASSERT_EQ(flat.active_acls(), oracle.active_acls()) << "window " << w;
    ASSERT_EQ(flat.active_limits(), oracle.active_limits()) << "window " << w;
    ASSERT_EQ(flat_calls.size(), map_calls.size()) << "window " << w;
    ASSERT_EQ(flat.action_log().size(), oracle.action_log().size()) << "window " << w;
  }
  EXPECT_EQ(flat.action_log().lines(), oracle.action_log().lines());
  EXPECT_EQ(flat_calls, map_calls);
  // The stream must exercise what it claims to.
  const auto count_type = [&oracle](ActionType t) {
    return std::count_if(oracle.action_log().actions().begin(),
                         oracle.action_log().actions().end(),
                         [t](const Action& a) { return a.type == t; });
  };
  EXPECT_GT(oracle.sources_tracked(), 15000u);
  EXPECT_GT(count_type(ActionType::kRateLimitInstall), 0);
  EXPECT_GT(count_type(ActionType::kAclExpire), 0);
  EXPECT_GT(count_type(ActionType::kQuarantine), 0);
  EXPECT_GT(count_type(ActionType::kProbationRejoin), 0);
  EXPECT_EQ(count_type(ActionType::kModelSwap), 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerdictPolicyOracleTest, ::testing::Values(1u, 2u, 3u));

// --------------------------------------------------------------------------
// End-to-end survival under a SYN flood
// --------------------------------------------------------------------------

// Deterministic window-rule classifier: flags every row of a window whose
// SYN-without-ACK ratio is flood-like. Detection quality is not under test
// here — the controller's volume threshold does the per-source separation.
class SynRuleModel : public ml::Classifier {
 public:
  std::string name() const override { return "syn-rule"; }
  void fit(const ml::DesignMatrix&, const std::vector<int>&) override {}
  int predict(std::span<const double> row) const override {
    return row[features::kWinSynNoAckRatio] > 0.3 ? 1 : 0;
  }
  bool trained() const override { return true; }
  void save(util::ByteWriter&) const override {}
  void load(util::ByteReader&) override {}
  std::uint64_t parameter_bytes() const override { return 0; }
  std::uint64_t inference_scratch_bytes() const override { return 0; }
};

core::Scenario syn_flood_scenario() {
  core::Scenario s;
  s.seed = 17;
  s.device_count = 8;
  // Half the fleet is infectable: the clean half's benign traffic is what
  // mitigation is supposed to keep alive.
  s.vulnerable_fraction = 0.5;
  s.duration = SimTime::seconds(12);
  s.infection_start = SimTime::millis(500);

  core::AttackBurst burst;
  burst.start = SimTime::seconds(3);
  burst.type = botnet::AttackType::kSynFlood;
  burst.duration = SimTime::seconds(6);
  // 4 bots x 20k pps x 40 B SYNs ~ 25.6 Mbit/s against the 8 Mbit/s
  // uplink: a 3.2x overload, so benign SYNs drown in the drop-tail queue.
  burst.packets_per_second_per_bot = 20000.0;
  burst.spoof_sources = false;  // bot-addressed, so edge rules can bite
  s.attacks.push_back(burst);

  // Narrow uplink: the flood congests the victim's edge, so router-side
  // filtering visibly restores benign latency, not just the backlog.
  s.topology.uplink.rate_bps = 8e6;
  return s;
}

struct SurvivalRun {
  obs::SurvivalReport report;
  std::string action_log;
  std::uint64_t acl_dropped = 0;
  std::uint64_t ratelimit_dropped = 0;
  std::uint64_t cookies_sent = 0;
  std::uint64_t actions = 0;
};

SurvivalRun run_syn_flood(bool mitigate) {
  SynRuleModel model;
  core::Testbed bed{syn_flood_scenario()};
  bed.deploy();

  ids::IdsConfig ids_cfg;
  ids_cfg.window = SimTime::millis(500);
  bed.deploy_ids(model, ids_cfg);
  if (mitigate) bed.enable_mitigation();

  auto& meter = obs::SurvivalMeter::global();
  meter.reset();
  meter.set_enabled(true);
  bed.run();
  meter.set_enabled(false);

  SurvivalRun out;
  out.report = meter.report();
  if (bed.mitigation() != nullptr) {
    out.action_log = bed.mitigation()->action_log().joined();
    out.actions = bed.mitigation()->action_log().size();
  }
  out.acl_dropped = bed.topology().router->stats().dropped_acl;
  out.ratelimit_dropped = bed.topology().router->stats().dropped_ratelimit;
  out.cookies_sent = bed.topology().tserver->tcp().syn_cookies_sent();
  return out;
}

TEST(SurvivalUnderAttackTest, MitigationRaisesConnectSuccessAndLowersTailLatency) {
  const SurvivalRun off = run_syn_flood(false);
  const SurvivalRun on = run_syn_flood(true);

  // The undefended run must actually be hurt for the comparison to mean
  // anything: connects that never complete (drowned SYNs still retrying at
  // run end) and a tail latency in congested-queue territory.
  ASSERT_GT(off.report.connects_attempted, 0u);
  ASSERT_LT(off.report.connects_succeeded, off.report.connects_attempted)
      << "flood did not hurt the baseline: " << off.report.summary();
  EXPECT_GT(off.report.latency_p99_ns, 500'000'000u)  // > 500 ms
      << "flood did not congest the uplink: " << off.report.summary();
  EXPECT_EQ(off.actions, 0u);
  EXPECT_EQ(off.acl_dropped + off.ratelimit_dropped, 0u);
  EXPECT_EQ(off.cookies_sent, 0u);

  // The defended run enforces: actions were taken and packets were dropped
  // at the edge / absorbed statelessly.
  EXPECT_GT(on.actions, 0u);
  EXPECT_GT(on.acl_dropped + on.ratelimit_dropped, 0u);
  EXPECT_GT(on.cookies_sent, 0u);

  // Survival: strictly higher benign connection success, lower benign p99.
  EXPECT_GT(on.report.connect_success_rate(), off.report.connect_success_rate())
      << "off: " << off.report.summary() << "\non: " << on.report.summary();
  ASSERT_GT(off.report.latency_samples, 0u);
  ASSERT_GT(on.report.latency_samples, 0u);
  EXPECT_LT(on.report.latency_p99_ns, off.report.latency_p99_ns)
      << "off: " << off.report.summary() << "\non: " << on.report.summary();
}

TEST(SurvivalUnderAttackTest, SameSeedDefendedRunsReplayByteIdentical) {
  const SurvivalRun first = run_syn_flood(true);
  const SurvivalRun second = run_syn_flood(true);
  ASSERT_FALSE(first.action_log.empty());
  EXPECT_EQ(first.action_log, second.action_log);
  EXPECT_EQ(first.actions, second.actions);
  EXPECT_EQ(first.acl_dropped, second.acl_dropped);
  EXPECT_EQ(first.ratelimit_dropped, second.ratelimit_dropped);
  EXPECT_EQ(first.cookies_sent, second.cookies_sent);
  EXPECT_EQ(first.report.connects_succeeded, second.report.connects_succeeded);
  EXPECT_EQ(first.report.benign_bytes, second.report.benign_bytes);
}

// With every mechanism switched off the controller observes but never
// enforces: no actions, no drops, no cookies — the "off preserves behavior"
// contract at the config level.
TEST(SurvivalUnderAttackTest, AllMechanismsDisabledTakesNoActions) {
  SynRuleModel model;
  core::Testbed bed{syn_flood_scenario()};
  bed.deploy();
  ids::IdsConfig ids_cfg;
  ids_cfg.window = SimTime::millis(500);
  bed.deploy_ids(model, ids_cfg);

  MitigationConfig cfg;
  cfg.enable_rate_limit = false;
  cfg.enable_acl = false;
  cfg.enable_syn_cookies = false;
  cfg.enable_quarantine = false;
  auto& controller = bed.enable_mitigation(cfg);
  bed.run();

  EXPECT_EQ(controller.action_log().size(), 0u);
  EXPECT_EQ(bed.topology().router->stats().dropped_acl, 0u);
  EXPECT_EQ(bed.topology().router->stats().dropped_ratelimit, 0u);
  EXPECT_EQ(bed.topology().tserver->tcp().syn_cookies_sent(), 0u);
  EXPECT_GT(controller.summary().windows_processed, 0u)
      << "the verdict bus should still deliver windows";
}

}  // namespace
}  // namespace ddoshield::mitigate
