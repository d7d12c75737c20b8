#include "core/shard_sim.hpp"

#include <atomic>
#include <chrono>
#include <climits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/spin_barrier.hpp"

namespace ddoshield::core {

// Per-run synchronisation shared by the shard threads. Allocated on
// run_until's stack; shard workers reach it through run_state_.
class ShardedSim::RunState {
 public:
  explicit RunState(std::size_t participants) : barrier{participants} {}
  util::SpinBarrier barrier;
  std::atomic<bool> failed{false};
  /// Shard 0 is running the sync hooks (for_each_shard may dispatch).
  std::atomic<bool> in_hook{false};
  /// The for_each_shard call the parked shards run next; null releases
  /// them from the hook. Written by shard 0 only before a barrier and read
  /// by the others only after it, so the barrier publishes it.
  const std::function<void(std::size_t)>* task = nullptr;
};

ShardedSim::ShardedSim(ShardSimConfig config) : config_{config} {
  if (config_.shard_count == 0)
    throw std::invalid_argument("ShardedSim: shard_count must be >= 1");
  shards_.reserve(config_.shard_count);
  for (std::size_t s = 0; s < config_.shard_count; ++s) {
    auto shard = std::make_unique<Shard>();
    {
      // The simulator caches its instrument pointers at construction, so
      // it must be built with the shard's domain installed.
      obs::ScopedObsDomain scope{shard->domain};
      shard->sim = std::make_unique<net::Simulator>();
    }
    // Disjoint uid ranges per shard: fleet-unique packet uids whose top
    // bits name the originating shard.
    shard->sim->set_packet_uid_base(static_cast<std::uint64_t>(s) << 48);
    shards_.push_back(std::move(shard));
  }
}

ShardedSim::~ShardedSim() = default;

net::Simulator& ShardedSim::simulator(std::size_t shard) {
  return *shards_.at(shard)->sim;
}

obs::ObsDomain& ShardedSim::domain(std::size_t shard) { return shards_.at(shard)->domain; }

net::Node& ShardedSim::add_node(std::size_t shard, const std::string& name,
                                net::Ipv4Address addr) {
  Shard& sh = *shards_.at(shard);
  std::unique_ptr<net::Node> node;
  {
    obs::ScopedObsDomain scope{sh.domain};
    node = std::make_unique<net::Node>(*sh.sim, name, addr);
  }
  net::Node& ref = *node;
  node_shard_.emplace(&ref, shard);
  sh.nodes.push_back(std::move(node));
  return ref;
}

std::size_t ShardedSim::shard_of(const net::Node& node) const {
  auto it = node_shard_.find(&node);
  if (it == node_shard_.end())
    throw std::invalid_argument("ShardedSim: node is not owned by this coordinator");
  return it->second;
}

net::Link& ShardedSim::connect(net::Node& a, net::Node& b, net::LinkConfig config) {
  const std::size_t sa = shard_of(a);
  const std::size_t sb = shard_of(b);

  if (sa == sb) {
    obs::ScopedObsDomain scope{shards_[sa]->domain};
    links_.push_back(
        std::make_unique<net::Link>(*shards_[sa]->sim, a, b, config));
    return *links_.back();
  }

  if (config.delay.is_zero())
    throw std::invalid_argument(
        "ShardedSim: cross-shard links need a positive propagation delay "
        "(it bounds the synchronisation lookahead)");

  // One channel per direction, owned here, drained by the receiving
  // shard. Inbound registration order is the (deterministic) topology
  // construction order — part of the determinism contract.
  channels_.push_back(std::make_unique<net::ShardChannel>(config_.channel_capacity));
  net::ShardChannel* a_to_b = channels_.back().get();
  shards_[sb]->inbound.push_back(a_to_b);
  channels_.push_back(std::make_unique<net::ShardChannel>(config_.channel_capacity));
  net::ShardChannel* b_to_a = channels_.back().get();
  shards_[sa]->inbound.push_back(b_to_a);

  std::unique_ptr<net::Link> link;
  {
    // Construct under a's domain (resolves both directions there), then
    // re-resolve b's transmit side under b's domain so each shard thread
    // counts into its own instruments.
    obs::ScopedObsDomain scope{shards_[sa]->domain};
    link = std::make_unique<net::Link>(*shards_[sa]->sim, *shards_[sb]->sim, a, b,
                                       config, a_to_b, b_to_a);
  }
  {
    obs::ScopedObsDomain scope{shards_[sb]->domain};
    link->rebind_obs(b);
  }

  if (cross_link_count_ == 0 || config.delay < min_cross_delay_)
    min_cross_delay_ = config.delay;
  ++cross_link_count_;
  links_.push_back(std::move(link));
  return *links_.back();
}

util::SimTime ShardedSim::lookahead() const {
  if (cross_link_count_ == 0) return util::SimTime{};
  if (!config_.lookahead.is_zero() && config_.lookahead < min_cross_delay_)
    return config_.lookahead;
  return min_cross_delay_;
}

ShardChannelStats ShardedSim::channel_stats() const {
  ShardChannelStats out;
  out.channels = channels_.size();
  for (const auto& ch : channels_) {
    out.shipped += ch->shipped();
    out.drained += ch->drained();
    out.overflowed += ch->overflowed();
  }
  return out;
}

void ShardedSim::drain_inbound(Shard& shard) {
  net::Simulator& sim = *shard.sim;
  for (net::ShardChannel* channel : shard.inbound) {
    channel->drain([&sim](net::ShardMsg&& msg) {
      // Finish the delivery exactly as the sending shard computed it: the
      // packet rides a pool slot of the *receiving* simulator until its
      // precomputed arrival time. delivered_packets on the sender's stats
      // block is written only by this (receiving) thread; the sender
      // writes the other members — disjoint, so race-free.
      net::Packet* slot = sim.packet_pool().acquire();
      *slot = std::move(msg.pkt);
      net::Node* dest = msg.dest;
      net::LinkDirectionStats* stats = msg.sender_stats;
      net::Simulator* simp = &sim;
      sim.post_at(util::SimTime::nanos(msg.arrival_ns), [slot, dest, stats, simp] {
        ++stats->delivered_packets;
        dest->deliver(std::move(*slot));
        simp->packet_pool().release(slot);
      });
    });
  }
}

void ShardedSim::record_failure() {
  std::lock_guard<std::mutex> lock{failure_mutex_};
  if (!failure_) failure_ = std::current_exception();
  run_state_->failed.store(true, std::memory_order_release);
}

std::int64_t ShardedSim::next_hook_after(std::int64_t cursor_ns) const {
  std::int64_t next = INT64_MAX;
  for (const SyncHook& hook : hooks_) {
    const std::int64_t boundary = (cursor_ns / hook.period_ns + 1) * hook.period_ns;
    if (boundary < next) next = boundary;
  }
  return next;
}

void ShardedSim::run_hooks_at(std::int64_t boundary_ns) {
  for (const SyncHook& hook : hooks_) {
    if (boundary_ns % hook.period_ns == 0) hook.fn(util::SimTime::nanos(boundary_ns));
  }
}

// Barrier waits are timed into the shard's stall accumulator: the time a
// shard idles here is exactly the load-imbalance (straggler) tax the health
// profiler graphs. Two clock reads per wait, a handful of waits per window
// — noise next to window execution.
void ShardedSim::wait_at_barrier(Shard& shard) {
  const auto b0 = std::chrono::steady_clock::now();
  run_state_->barrier.arrive_and_wait();
  const auto b1 = std::chrono::steady_clock::now();
  shard.barrier_stall_ns.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(b1 - b0).count()),
      std::memory_order_relaxed);
}

void ShardedSim::for_each_shard(const std::function<void(std::size_t)>& fn) {
  RunState* rs = run_state_;
  if (rs == nullptr) {
    // S == 1, or no run in progress: nobody to hand the calls to.
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      obs::ScopedObsDomain scope{shards_[s]->domain};
      fn(s);
    }
    return;
  }
  if (!rs->in_hook.load(std::memory_order_relaxed) || rs->task != nullptr)
    throw std::logic_error(
        "ShardedSim::for_each_shard: during a run only a sync hook may call it");
  Shard& self = *shards_[0];
  rs->task = &fn;
  wait_at_barrier(self);  // the parked shards pick the task up
  std::exception_ptr own;
  try {
    fn(0);
  } catch (...) {
    own = std::current_exception();
  }
  wait_at_barrier(self);  // every shard's call has returned
  rs->task = nullptr;
  if (own) std::rethrow_exception(own);
  if (rs->failed.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock{failure_mutex_};
    std::rethrow_exception(failure_);
  }
}

void ShardedSim::worker(std::size_t shard_index, util::SimTime t0,
                        util::SimTime until, std::int64_t lookahead_ns) {
  Shard& shard = *shards_[shard_index];
  obs::ScopedObsDomain scope{shard.domain};
  RunState& rs = *run_state_;
  const bool have_hooks = !hooks_.empty();
  // The window cursor is thread-local on purpose: every worker computes
  // the identical (t0, until, lookahead, hook periods) arithmetic, so the
  // barrier and sub-step sequences align with no shared state.
  std::int64_t cursor = t0.ns();
  for (std::int64_t j = 0;; ++j) {
    // Barrier #1: every shard has finished the previous window, so every
    // message bound for this window is already in its channel.
    wait_at_barrier(shard);
    if (!rs.failed.load(std::memory_order_acquire)) {
      try {
        drain_inbound(shard);
      } catch (...) {
        record_failure();
      }
    }
    // Barrier #2: every drain is complete before anyone starts executing,
    // so no producer touches a ring while its consumer drains it.
    wait_at_barrier(shard);
    util::SimTime target = until;
    if (lookahead_ns > 0) {
      const util::SimTime horizon = t0 + util::SimTime::nanos((j + 1) * lookahead_ns);
      if (horizon < target) target = horizon;
    }
    // Execute the window, pausing at every sync-hook multiple (of any
    // registered hook). One drain pair per window stays sufficient: a
    // message needed inside window j was sent strictly before T_{j-1}
    // (arrival >= send + L), so it is already posted; messages sent
    // during a sub-step arrive > T_j.
    while (true) {
      std::int64_t sub_ns = target.ns();
      bool hook_due = false;
      if (have_hooks) {
        const std::int64_t next_hook = next_hook_after(cursor);
        if (next_hook <= sub_ns) {
          sub_ns = next_hook;
          hook_due = true;
        }
      }
      if (!rs.failed.load(std::memory_order_acquire)) {
        try {
          shard.sim->run_until(util::SimTime::nanos(sub_ns));
        } catch (...) {
          record_failure();
        }
      }
      cursor = sub_ns;
      if (hook_due) {
        // Barrier #3: the whole fleet is parked at exactly sub_ns (every
        // boundary-timestamped event already executed); shard 0 runs the
        // due hooks, in registration order, with exclusive access to all
        // shards' state.
        wait_at_barrier(shard);
        if (shard_index == 0) {
          if (!rs.failed.load(std::memory_order_acquire)) {
            rs.in_hook.store(true, std::memory_order_relaxed);
            try {
              run_hooks_at(sub_ns);
            } catch (...) {
              record_failure();
            }
            rs.in_hook.store(false, std::memory_order_relaxed);
          }
          // Barrier #4 with no task: the hooks are done before anyone
          // resumes executing.
          wait_at_barrier(shard);
        } else {
          // Parked: run each for_each_shard call the hooks hand over (two
          // barriers per call) until barrier #4 arrives with no task.
          while (true) {
            wait_at_barrier(shard);
            const std::function<void(std::size_t)>* task = rs.task;
            if (task == nullptr) break;
            try {
              (*task)(shard_index);
            } catch (...) {
              record_failure();
            }
            wait_at_barrier(shard);
          }
        }
      }
      if (cursor >= target.ns()) break;
    }
    if (shard_index == 0) ++windows_;
    if (target >= until) return;
  }
}

void ShardedSim::add_sync_hook(util::SimTime period, std::function<void(util::SimTime)> fn) {
  if (!fn) throw std::invalid_argument("ShardedSim: sync hook must be callable");
  if (period.ns() <= 0)
    throw std::invalid_argument("ShardedSim: sync hook period must be positive");
  hooks_.push_back(SyncHook{period.ns(), std::move(fn)});
}

void ShardedSim::run_until(util::SimTime until) {
  if (shards_.size() == 1) {
    // The one shard runs inline on the calling thread, in its own domain
    // like every shard of a threaded run.
    obs::ScopedObsDomain scope{shards_[0]->domain};
    net::Simulator& sim = *shards_[0]->sim;
    if (hooks_.empty()) {
      sim.run_until(until);
      return;
    }
    // Inline sub-stepping: identical pause points to the threaded path.
    std::int64_t cursor = sim.now().ns();
    while (cursor < until.ns()) {
      const std::int64_t next_hook = next_hook_after(cursor);
      const std::int64_t sub_ns = next_hook < until.ns() ? next_hook : until.ns();
      sim.run_until(util::SimTime::nanos(sub_ns));
      cursor = sub_ns;
      if (cursor == next_hook) run_hooks_at(cursor);
    }
    sim.run_until(until);  // handles until <= start (no-op) and exact landing
    return;
  }

  const util::SimTime t0 = shards_[0]->sim->now();
  if (until <= t0) return;
  const std::int64_t lookahead_ns = lookahead().ns();

  RunState rs{shards_.size()};
  run_state_ = &rs;
  std::vector<std::thread> threads;
  threads.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    threads.emplace_back([this, s, t0, until, lookahead_ns] {
      worker(s, t0, until, lookahead_ns);
    });
  }
  for (std::thread& t : threads) t.join();
  run_state_ = nullptr;

  if (failure_) {
    std::exception_ptr failure = failure_;
    failure_ = nullptr;
    std::rethrow_exception(failure);
  }
}

std::uint64_t ShardedSim::barrier_stall_ns(std::size_t shard) const {
  return shards_.at(shard)->barrier_stall_ns.load(std::memory_order_relaxed);
}

double ShardedSim::load_imbalance() {
  if (shards_.size() <= 1) return 1.0;
  if (imbalance_last_.size() != shards_.size())
    imbalance_last_.assign(shards_.size(), 0);
  std::uint64_t max_delta = 0;
  std::uint64_t sum_delta = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::uint64_t executed = shards_[s]->sim->events_executed();
    const std::uint64_t delta = executed - imbalance_last_[s];
    imbalance_last_[s] = executed;
    if (delta > max_delta) max_delta = delta;
    sum_delta += delta;
  }
  if (sum_delta == 0) return 1.0;
  const double mean = static_cast<double>(sum_delta) / static_cast<double>(shards_.size());
  return static_cast<double>(max_delta) / mean;
}

void ShardedSim::merge_metrics() {
  if (merged_) return;
  merged_ = true;
  for (auto& shard : shards_) shard->domain.merge_into_process_globals();
}

}  // namespace ddoshield::core
