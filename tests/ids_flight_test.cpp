// IDS latency attribution: on a seeded run the flight recorder's window
// stages and the registry's latency series must reconcile with the
// IDS's own window reports — one close/submit/complete/verdict per window —
// and the per-packet detect-lag series must cover every tapped packet.
// Also the ResourceMeter's RSS probe and CPU formula.
#include <gtest/gtest.h>

#include <vector>

#include "capture/tap.hpp"
#include "container/runtime.hpp"
#include "ids/realtime_ids.hpp"
#include "ids/resource_meter.hpp"
#include "net/network.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace ddoshield::ids {
namespace {

using util::Rng;
using util::SimTime;

/// Port classifier (dst_port 9999 = attack).
class PortModel : public ml::Classifier {
 public:
  std::string name() const override { return "port"; }
  void fit(const ml::DesignMatrix&, const std::vector<int>&) override {}
  bool trained() const override { return true; }
  int predict(std::span<const double> row) const override {
    return row[5] > 0.14 ? 1 : 0;  // dst_port 9999/65535 = 0.1526
  }
  void save(util::ByteWriter&) const override {}
  void load(util::ByteReader&) override {}
  std::uint64_t parameter_bytes() const override { return 1024; }
  std::uint64_t inference_scratch_bytes() const override { return 256; }
};

struct World {
  net::Network net;
  net::Node* sender = nullptr;
  net::Node* victim = nullptr;
  container::ContainerRuntime runtime;
  container::Container* ids_box = nullptr;
  capture::PacketTap tap;

  World() {
    sender = &net.add_node("sender", net::Ipv4Address{10, 0, 0, 1});
    victim = &net.add_node("victim", net::Ipv4Address{10, 0, 0, 2});
    net.add_link(*sender, *victim, net::LinkConfig{});
    sender->set_default_route(0);
    victim->set_default_route(0);
    tap.attach_to(*victim);
    runtime.register_image({"test/ids", "1", nullptr});
    ids_box = &runtime.create("ids", "test/ids:1");
    ids_box->attach_node(*victim);
    ids_box->start();
  }

  void emit(std::uint16_t dst_port, net::TrafficOrigin origin) {
    net::Packet p;
    p.dst = victim->address();
    p.dst_port = dst_port;
    p.proto = net::IpProto::kUdp;
    p.payload_bytes = 64;
    p.origin = origin;
    sender->send(std::move(p));
  }

  void schedule_mixed_workload() {
    for (int w = 0; w < 5; ++w) {
      for (int i = 0; i < 3 + w; ++i) {
        const bool attack = (w + i) % 2 == 0;
        net.simulator().schedule(
            SimTime::millis(static_cast<std::int64_t>(w) * 1000 + 100 + i * 50), [=, this] {
              emit(attack ? 9999 : 80,
                   attack ? net::TrafficOrigin::kMiraiUdpFlood : net::TrafficOrigin::kHttp);
            });
      }
    }
  }
};

struct SeriesBaselines {
  std::uint64_t batch, benign, attack;
  static SeriesBaselines capture() {
    auto& lat = obs::MetricsRegistry::global();
    return SeriesBaselines{lat.latency("flight.ids.infer_batch_ns").count(),
                           lat.latency("flight.port.detect_lag_ns.benign").count(),
                           lat.latency("flight.port.detect_lag_ns.attack").count()};
  }
};

std::uint64_t count_stage(const std::vector<obs::FlightEvent>& events,
                          obs::FlightStage stage) {
  std::uint64_t n = 0;
  for (const auto& e : events) n += e.stage == stage ? 1 : 0;
  return n;
}

struct GlobalFlightGuard {
  ~GlobalFlightGuard() {
    auto& f = obs::FlightRecorder::global();
    f.set_enabled(false);
    f.configure(obs::FlightConfig{});
  }
};

TEST(IdsFlightTest, InlineAttributionReconcilesWithReports) {
  GlobalFlightGuard guard;
  auto& flight = obs::FlightRecorder::global();
  // Every packet sampled; ring big enough that nothing is overwritten.
  flight.configure(obs::FlightConfig{.capacity = 2048, .sample_every = 1});
  flight.set_enabled(true);
  const SeriesBaselines before = SeriesBaselines::capture();

  World world;
  PortModel model;
  RealTimeIds ids{*world.ids_box, Rng{1}, model, IdsConfig{}};
  ids.attach_tap(world.tap);
  ids.start();
  world.schedule_mixed_workload();
  world.net.simulator().run_until(SimTime::millis(5500));
  ids.flush();

  const auto reports = ids.reports();
  ASSERT_GE(reports.size(), 5u);
  std::uint64_t total_packets = 0;
  for (const auto& r : reports) total_packets += r.packets;

  // Flight window stages reconcile with the reports: one
  // close/submit/complete/verdict quadruple per scored window.
  const auto events = flight.events_in_order();
  EXPECT_EQ(flight.overwritten(), 0u) << "ring too small for the run";
  EXPECT_EQ(count_stage(events, obs::FlightStage::kWindowClose), reports.size());
  EXPECT_EQ(count_stage(events, obs::FlightStage::kInferSubmit), reports.size());
  EXPECT_EQ(count_stage(events, obs::FlightStage::kInferComplete), reports.size());
  EXPECT_EQ(count_stage(events, obs::FlightStage::kVerdict), reports.size());
  // Every tapped packet was sampled into the capture stage.
  EXPECT_EQ(count_stage(events, obs::FlightStage::kCaptureTap), total_packets);

  // One batch-time observation per scored window.
  auto& lat = obs::MetricsRegistry::global();
  EXPECT_EQ(lat.latency("flight.ids.infer_batch_ns").count() - before.batch, reports.size());

  // Per-packet end-to-end detect lag: every tapped packet lands in exactly
  // one traffic-class series.
  const std::uint64_t benign =
      lat.latency("flight.port.detect_lag_ns.benign").count() - before.benign;
  const std::uint64_t attack =
      lat.latency("flight.port.detect_lag_ns.attack").count() - before.attack;
  EXPECT_EQ(benign + attack, total_packets);
  EXPECT_GT(attack, 0u);
  EXPECT_GT(benign, 0u);
}

// ---------------------------------------------------------------------------
// ResourceMeter
// ---------------------------------------------------------------------------

TEST(ResourceMeterTest, RssSamplingIsRateLimitedPerWindow) {
  ResourceMeter meter{"test", ResourceMeterConfig{}};
  const std::uint64_t first = meter.sample_rss_kb(0);
  EXPECT_GT(first, 0u);  // a live process has nonzero RSS
  EXPECT_EQ(meter.samples_taken(), 1u);
  EXPECT_EQ(meter.sample_rss_kb(0), first);  // cached, no second read
  EXPECT_EQ(meter.samples_taken(), 1u);
  meter.sample_rss_kb(1);
  EXPECT_EQ(meter.samples_taken(), 2u);
  meter.sample_rss_kb(1);
  EXPECT_EQ(meter.samples_taken(), 2u);
}

TEST(ResourceMeterTest, WindowCpuPercentClampsAt100) {
  ResourceMeter meter{"test", ResourceMeterConfig{}};
  const std::uint64_t window_ns = 1'000'000'000;
  // An hour of modelled work in a one-second window clamps.
  EXPECT_DOUBLE_EQ(meter.window_cpu_percent(3'600'000'000'000ull, 0, window_ns), 100.0);
  // Zero measured work still carries the fixed per-window overhead.
  ResourceMeterConfig no_overhead;
  no_overhead.per_window_overhead_ms = 0.0;
  ResourceMeter lean{"lean", no_overhead};
  EXPECT_DOUBLE_EQ(lean.window_cpu_percent(0, 0, window_ns), 0.0);
  EXPECT_GT(meter.window_cpu_percent(0, 0, window_ns), 0.0);
}

TEST(ResourceMeterPeakTest, PeakRssIsPopulatedAndMonotone) {
  ResourceMeter meter{"peaktest", ResourceMeterConfig{}};
  EXPECT_EQ(meter.peak_rss_kb(), 0u) << "no probe yet";
  const std::uint64_t current = meter.sample_rss_kb(0);
  const std::uint64_t peak = meter.peak_rss_kb();
  EXPECT_GT(current, 0u);
  EXPECT_GT(peak, 0u);
  // The high-water mark can never sit below the current working set.
  EXPECT_GE(peak, current);

  // Re-probing never regresses the peak.
  meter.sample_rss_kb(1);
  EXPECT_GE(meter.peak_rss_kb(), peak);

  // on_window_closed publishes the gauge alongside cpu/rss.
  meter.on_window_closed(2, 1'000'000, 1'000'000, 1'000'000'000);
  auto& reg = obs::MetricsRegistry::global();
  EXPECT_GE(reg.gauge("ids.peaktest.rss_peak_kb").value(),
            static_cast<double>(peak));
}

}  // namespace
}  // namespace ddoshield::ids
