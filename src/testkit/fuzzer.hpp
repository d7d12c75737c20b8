// Seeded scenario fuzzer for the net/IDS pipeline.
//
// One 64-bit seed deterministically expands into a complete randomized
// run: topology shape and link parameters, benign traffic mix, Mirai
// infection and attack schedule, and a fault plan (link flaps, degrade
// bursts, device crashes). The run drives the *real* stack — Testbed,
// TcpHost, RealTimeIds — while an InvariantChecker watches every node and
// an EventLog records each packet crossing the victim, each fault firing,
// and each closed IDS window. Replaying a seed reproduces the event log
// byte for byte; the fuzz_smoke ctest target asserts exactly that.
#pragma once

#include <cstdint>
#include <memory>

#include "core/scenario.hpp"
#include "ml/classifier.hpp"
#include "testkit/event_log.hpp"
#include "testkit/invariants.hpp"

namespace ddoshield::testkit {

struct FuzzOptions {
  /// When set, the IDS container is deployed with this trained model and
  /// window reports are appended to the event log.
  const ml::Classifier* ids_model = nullptr;
  util::SimTime ids_window = util::SimTime::millis(500);
  /// Close the detect→defend loop: Testbed::enable_mitigation after the
  /// IDS deploys (requires ids_model). Every mitigation action is appended
  /// to the event log, so same-seed replay covers enforcement too.
  bool enable_mitigation = false;
  /// Arm the model lifecycle (drift detection, retraining, versioned
  /// hot-swap) with an aggressive cadence so short fuzz
  /// scenarios actually swap models mid-run. Window lines carry the
  /// serving model version and a lifecycle summary line is appended, so
  /// same-seed replay pins the whole drift→retrain→swap sequence.
  bool enable_lifecycle = false;
  /// Generate and apply a fault plan (flaps, degradation, crashes).
  bool enable_faults = true;
  /// Watch the whole network with an InvariantChecker.
  bool check_invariants = true;
  /// Log every packet the victim's node sends or receives.
  bool log_packets = true;
  /// Extra simulated time after the scenario ends for retransmission
  /// chains to die out; covers the worst TCP retry backoff (~32 s).
  util::SimTime drain_grace = util::SimTime::seconds(40);
};

struct FuzzResult {
  std::uint64_t seed = 0;
  core::Scenario scenario;
  InvariantReport invariants;
  EventLog log;
  std::uint64_t packets_tapped = 0;
  std::uint64_t faults_scheduled = 0;
  std::uint64_t faults_fired = 0;
  std::uint64_t ids_windows = 0;
  std::uint64_t mitigation_actions = 0;
  std::uint64_t lifecycle_swaps = 0;
  std::uint64_t lifecycle_retrains = 0;
  std::uint64_t events_executed = 0;
  util::SimTime end_time;

  bool ok() const { return invariants.ok(); }
};

class Fuzzer {
 public:
  explicit Fuzzer(FuzzOptions options = {}) : options_{options} {}

  /// Pure function of the seed: the randomized scenario a run will use.
  static core::Scenario generate_scenario(std::uint64_t seed);

  /// Builds, runs, and checks one seeded scenario end to end.
  FuzzResult run(std::uint64_t seed);

 private:
  FuzzOptions options_;
};

}  // namespace ddoshield::testkit
