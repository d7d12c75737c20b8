#include "net/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace ddoshield::net {

Simulator::Simulator() {
  calendar_.buckets.resize(kBuckets);
  auto& reg = obs::MetricsRegistry::global();
  m_scheduled_ = &reg.counter("net.sim.events_scheduled");
  m_executed_ = &reg.counter("net.sim.events_executed");
  m_cancelled_ = &reg.counter("net.sim.events_cancelled");
  m_rollovers_ = &reg.counter("net.sim.calendar.rollovers");
  m_migrations_ = &reg.counter("net.sim.calendar.migrations");
  m_bucket_occupancy_ = &reg.gauge("net.sim.calendar.bucket_occupancy");
}

Simulator::~Simulator() { flush_stats(); }

void Simulator::flush_stats() {
  m_scheduled_->inc(next_seq_ - flushed_scheduled_);
  flushed_scheduled_ = next_seq_;
  m_executed_->inc(events_executed_ - flushed_executed_);
  flushed_executed_ = events_executed_;
  m_cancelled_->inc(events_cancelled_ - flushed_cancelled_);
  flushed_cancelled_ = events_cancelled_;
  m_rollovers_->inc(calendar_.rollovers - flushed_rollovers_);
  flushed_rollovers_ = calendar_.rollovers;
  m_migrations_->inc(calendar_.migrations - flushed_migrations_);
  flushed_migrations_ = calendar_.migrations;
  m_bucket_occupancy_->set(static_cast<double>(calendar_.bucket_high_water));
}

void EventHandle::cancel() {
  if (cancelled_) *cancelled_ = true;
}

bool EventHandle::pending() const { return cancelled_ && !*cancelled_; }

void Simulator::heap_push(EventHeap& heap, Event ev) {
  heap.push_back(std::move(ev));
  std::push_heap(heap.begin(), heap.end(), EventOrder{});
}

Simulator::Event Simulator::heap_pop(EventHeap& heap) {
  std::pop_heap(heap.begin(), heap.end(), EventOrder{});
  Event ev = std::move(heap.back());
  heap.pop_back();
  return ev;
}

EventHandle Simulator::schedule(util::SimTime delay, Callback fn) {
  if (delay.is_negative()) {
    throw std::invalid_argument("Simulator::schedule: negative delay");
  }
  return schedule_at(now_ + delay, std::move(fn));
}

EventHandle Simulator::schedule_at(util::SimTime when, Callback fn) {
  if (when < now_) {
    throw std::invalid_argument("Simulator::schedule_at: time in the past");
  }
  auto cancelled = std::make_shared<bool>(false);
  insert(Event{when, next_seq_++, std::move(fn), cancelled});
  return EventHandle{cancelled};
}

void Simulator::post_at(util::SimTime when, Callback fn) {
  if (when < now_) {
    throw std::invalid_argument("Simulator::post_at: time in the past");
  }
  insert(Event{when, next_seq_++, std::move(fn), nullptr});
}

void Simulator::insert(Event ev) {
  CalendarState& cal = calendar_;
  if (cal.buffered == 0 && cal.overflow.empty()) {
    // Idle wheel: re-anchor the window at the clock so the whole span
    // [now, now + kBuckets days) is bucketable again.
    cal.base_day = day_of(now_);
    cal.hint_day = cal.base_day;
  }
  const std::int64_t day = day_of(ev.when);
  if (day < cal.base_day + static_cast<std::int64_t>(kBuckets)) {
    EventHeap& bucket = cal.buckets[static_cast<std::size_t>(day) & (kBuckets - 1)];
    heap_push(bucket, std::move(ev));
    ++cal.buffered;
    if (bucket.size() > cal.bucket_high_water) cal.bucket_high_water = bucket.size();
    if (day < cal.hint_day) cal.hint_day = day;
  } else {
    heap_push(cal.overflow, std::move(ev));
  }
  ++pending_;
  if (pending_ > queue_high_water_) queue_high_water_ = pending_;
}

void Simulator::migrate_overflow() {
  CalendarState& cal = calendar_;
  const std::int64_t end_day = cal.base_day + static_cast<std::int64_t>(kBuckets);
  while (!cal.overflow.empty() && day_of(cal.overflow.front().when) < end_day) {
    Event ev = heap_pop(cal.overflow);
    const std::int64_t day = day_of(ev.when);
    EventHeap& bucket = cal.buckets[static_cast<std::size_t>(day) & (kBuckets - 1)];
    heap_push(bucket, std::move(ev));
    ++cal.buffered;
    if (bucket.size() > cal.bucket_high_water) cal.bucket_high_water = bucket.size();
    ++cal.migrations;
  }
}

util::SimTime Simulator::next_when() {
  CalendarState& cal = calendar_;
  if (cal.buffered == 0) return cal.overflow.front().when;
  // Walk the hint forward past drained days. Amortized O(1): the hint only
  // ever retreats when an insert lands on an earlier day.
  while (cal.buckets[static_cast<std::size_t>(cal.hint_day) & (kBuckets - 1)].empty()) {
    ++cal.hint_day;
  }
  return cal.buckets[static_cast<std::size_t>(cal.hint_day) & (kBuckets - 1)].front().when;
}

void Simulator::run_until(util::SimTime until) {
  while (pending_ != 0 && next_when() <= until) {
    execute_next();
  }
  if (now_ < until) now_ = until;
  flush_stats();
}

void Simulator::run_all() {
  while (pending_ != 0) execute_next();
  flush_stats();
}

void Simulator::execute_next() {
  CalendarState& cal = calendar_;
  if (cal.buffered == 0) {
    // Every bucket drained and only far-future events remain: fast-
    // forward the wheel window to the spillover's earliest day and pull
    // everything that now fits back onto the wheel.
    cal.base_day = day_of(cal.overflow.front().when);
    cal.hint_day = cal.base_day;
    ++cal.rollovers;
    migrate_overflow();
  }
  while (cal.buckets[static_cast<std::size_t>(cal.hint_day) & (kBuckets - 1)].empty()) {
    ++cal.hint_day;
  }
  Event ev = heap_pop(cal.buckets[static_cast<std::size_t>(cal.hint_day) & (kBuckets - 1)]);
  --cal.buffered;
  --pending_;

  if (ev.when < now_) ++time_regressions_;
  now_ = ev.when;
  if (ev.cancelled && *ev.cancelled) {
    ++events_cancelled_;
    return;
  }
  ++events_executed_;
  ev.fn();
}

}  // namespace ddoshield::net
