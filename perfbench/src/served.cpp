// The served detector both scale workloads train during set-up: an
// 8-device, 20 s training capture, extract_features, then fit.
//
// The capture's seed is fixed rather than taken from --seed: the served
// model is part of the deployment, like a shipped model file, so every
// workload seed serves the same detector and only the traffic varies. (A
// K-Means fitted on some captures flags too few fleet rows for mitigation
// to engage; a fixed model keeps the workload's behaviour, and its set-up
// cost, the same for every seed.)
#include "bench.hpp"
#include "core/pipeline.hpp"
#include "core/scenario.hpp"
#include "features/extractor.hpp"

namespace perfbench {

namespace {
constexpr std::uint64_t kCaptureSeed = 1;
}  // namespace

ServedDetector train_served(std::unique_ptr<ml::Classifier> model, Tracer& tracer) {
  ServedDetector out;
  core::Scenario capture = core::training_scenario(kCaptureSeed);
  capture.device_count = 8;
  capture.duration = util::SimTime::seconds(20);

  const Clock::time_point t0 = Clock::now();
  core::GenerationResult gen;
  {
    SpanScope span{tracer, "core.run_generation"};
    gen = core::run_generation(capture);
  }
  const Clock::time_point t1 = Clock::now();
  features::FeatureMatrix fm;
  {
    SpanScope span{tracer, "features.extract_features"};
    fm = features::extract_features(gen.dataset);
  }
  ml::DesignMatrix x;
  std::vector<int> y;
  core::to_design_matrix(fm, x, y);
  {
    SpanScope span{tracer, "ml.fit." + model->name()};
    model->fit(x, y);
  }
  const Clock::time_point t2 = Clock::now();

  out.model = std::move(model);
  out.generate_s = seconds_between(t0, t1);
  out.train_s = seconds_between(t1, t2);
  return out;
}

}  // namespace perfbench
