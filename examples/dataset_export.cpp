// Dataset export: run the testbed as a labelled-traffic generator and
// write the capture to CSV — the "high-quality IoT IDS dataset" use case
// the paper motivates (training data for third-party IDS research).
//
// Usage:  ./build/examples/dataset_export [output.csv] [seconds]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "capture/flow.hpp"
#include "core/scenario.hpp"
#include "core/testbed.hpp"
#include "util/logging.hpp"

using namespace ddoshield;

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IONBF, 0);
  util::Logger::instance().set_level(util::LogLevel::kWarn);

  const std::string out_path = argc > 1 ? argv[1] : "/tmp/ddoshield_capture.csv";
  const double seconds = argc > 2 ? std::atof(argv[2]) : 60.0;

  core::Scenario s = core::training_scenario(/*seed=*/11);
  s.duration = util::SimTime::from_seconds(seconds);

  std::printf("running testbed for %.0f simulated seconds...\n", seconds);
  core::Testbed tb{s};
  tb.deploy();
  tb.record_dataset();
  tb.run();

  const auto& ds = tb.dataset();
  std::printf("%s", ds.composition_summary().c_str());

  // Flow-level view of the capture (Wireshark "conversations" style).
  capture::FlowTable flows;
  for (const auto& r : ds.records()) flows.add(r);
  std::size_t malicious_flows = 0;
  flows.for_each(
      [&](const capture::FlowKey&, const capture::FlowRecord& flow) { malicious_flows += flow.malicious; });
  std::printf("flows: %zu total, %zu tainted by attack traffic\n", flows.flow_count(),
              malicious_flows);
  std::printf("short-lived flows (<100 ms, <=2 pkts): %zu\n",
              flows.short_lived_count(util::SimTime::millis(100), 2));

  ds.save_csv(out_path);
  std::printf("wrote %zu labelled packets to %s\n", ds.size(), out_path.c_str());
  std::printf("load it with any CSV tool.\n");
  return 0;
}
