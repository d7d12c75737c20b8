// Workload "paper": the quickstart flow on one thread — generate the
// training capture, train RF/K-Means/CNN, detect with each on the
// detection scenario (E1-E4, Tables I-II). The ml layer does nearly all of
// the work here.
//
// Set-up produces the models the measured phase serves, as in the scale
// workloads: run_generation of the training capture, then
// train_all_models. At ~40 s it is timed once per run. The measured phase
// is rounds of run_detection with each model until the rounds add up to
// --seconds (at least one).
#include <cstdio>
#include <map>
#include <memory>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "core/scenario.hpp"
#include "features/extractor.hpp"
#include "ml/cnn.hpp"
#include "ml/kmeans.hpp"
#include "ml/model_store.hpp"
#include "ml/preprocess.hpp"
#include "ml/random_forest.hpp"
#include "obs/metrics.hpp"

namespace perfbench {
namespace {

const char* const kModels[] = {"rf", "kmeans", "cnn"};

// One detection round: run_detection with each model.
struct DetectRound {
  std::map<std::string, core::DetectionResult> detections;
  std::map<std::string, double> detect_s;
  std::map<std::string, double> score_s;  // wrapped passes only
  std::map<std::string, std::uint64_t> score_rows;
};

struct PaperPass {
  double setup_s = 0.0;
  double generate_s = 0.0;
  core::GenerationResult generation;
  double train_s = 0.0;
  std::vector<core::ModelReport> train_reports;
  std::vector<DetectRound> rounds;
  double peak_rss_mb = 0.0;  // after the first round; repeats only re-run it
  std::uint64_t net_events = 0;  // generation + detection
  double sim_s = 0.0;            // wall of those same calls
  double wall_s = 0.0;
};

// train_all_models' public calls, made here in the same order (the map
// order of its model table) so fit and bulk scoring get their own spans.
core::TrainedModels traced_train(const capture::Dataset& dataset, Tracer& tracer) {
  const core::TrainingOptions options;
  features::FeatureMatrix fm;
  {
    SpanScope span{tracer, "features.extract_features"};
    features::AggregatorConfig agg_cfg;
    agg_cfg.window = options.window;
    fm = features::extract_features(dataset, agg_cfg);
  }
  ml::DesignMatrix x;
  std::vector<int> y;
  core::to_design_matrix(fm, x, y);
  util::Rng split_rng{options.split_seed};
  const ml::TrainTestSplit split = ml::train_test_split(x, y, options.test_fraction, split_rng);

  core::TrainedModels out;
  out.models.emplace("rf", std::make_unique<ml::RandomForest>());
  out.models.emplace("kmeans", std::make_unique<ml::KMeansDetector>());
  out.models.emplace("cnn", std::make_unique<ml::Cnn1D>());
  for (auto& [name, model] : out.models) {
    core::ModelReport report;
    report.model = name;
    {
      SpanScope span{tracer, "ml.fit." + name};
      const Clock::time_point t0 = Clock::now();
      model->fit(split.train_x, split.train_y);
      report.fit_seconds = seconds_between(t0, Clock::now());
    }
    {
      SpanScope span{tracer, "ml.split_score." + name};
      report.train.add_all(split.train_y, model->predict_batch(split.train_x));
      report.test.add_all(split.test_y, model->predict_batch(split.test_x));
    }
    {
      SpanScope span{tracer, "ml.serialize." + name};
      report.model_file_bytes = ml::serialize_model(*model).size();
    }
    out.reports.push_back(std::move(report));
  }
  return out;
}

std::uint64_t events_executed() {
  return obs::MetricsRegistry::global().counter("net.sim.events_executed").value();
}

// Set-up (generation and training), then detection rounds until they add
// up to `seconds` (at least one).
PaperPass paper_pass(std::uint64_t seed, Tracer& tracer, Report& report, double seconds) {
  PaperPass pass;
  const Clock::time_point pass0 = Clock::now();
  const std::uint64_t events0 = events_executed();

  const core::Scenario capture = core::training_scenario(seed);
  {
    SpanScope span{tracer, "core.run_generation"};
    pass.generation = core::run_generation(capture);
  }
  const Clock::time_point t1 = Clock::now();
  report.attempted += 1;
  core::TrainedModels models = tracer.enabled()
                                   ? traced_train(pass.generation.dataset, tracer)
                                   : core::train_all_models(pass.generation.dataset);
  const Clock::time_point t2 = Clock::now();
  report.attempted += 1;
  pass.generate_s = seconds_between(pass0, t1);
  pass.train_s = seconds_between(t1, t2);
  pass.setup_s = seconds_between(pass0, t2);
  pass.sim_s += pass.generate_s;
  pass.train_reports = models.reports;

  double detect_total_s = 0.0;
  do {
    DetectRound round;
    for (const char* name : kModels) {
      const core::Scenario scenario = core::detection_scenario(seed + 1);
      ml::Classifier& model = *models.models.at(name);
      const Clock::time_point d0 = Clock::now();
      if (tracer.enabled()) {
        TimedClassifier served{model, tracer};
        {
          SpanScope span{tracer, std::string{"core.run_detection."} + name};
          round.detections[name] = core::run_detection(scenario, served);
        }
        round.score_s[name] = served.score_seconds();
        round.score_rows[name] = served.rows_scored();
      } else {
        round.detections[name] = core::run_detection(scenario, model);
      }
      round.detect_s[name] = seconds_between(d0, Clock::now());
      detect_total_s += round.detect_s[name];
      pass.sim_s += round.detect_s[name];
      report.attempted += 1;
    }
    std::fprintf(stderr, "[paper] set-up %.3f s; detect rf %.3f s, kmeans %.3f s, cnn %.3f s\n",
                 pass.setup_s, round.detect_s["rf"], round.detect_s["kmeans"],
                 round.detect_s["cnn"]);
    if (pass.rounds.empty()) pass.peak_rss_mb = peak_rss_mb();
    pass.rounds.push_back(std::move(round));
  } while (detect_total_s < seconds);
  pass.net_events = events_executed() - events0;
  pass.wall_s = seconds_between(pass0, Clock::now());
  return pass;
}

void compare_training(const PaperPass& a, const PaperPass& b, Report& report,
                      const std::string& what) {
  report.expect(a.generation.dataset.size() == b.generation.dataset.size() &&
                    a.train_reports.size() == b.train_reports.size(),
                what + ": generation or training differs");
  for (std::size_t i = 0; i < a.train_reports.size() && i < b.train_reports.size(); ++i) {
    const core::ModelReport& ra = a.train_reports[i];
    const core::ModelReport& rb = b.train_reports[i];
    report.expect(ra.model == rb.model && ra.train.tp() == rb.train.tp() &&
                      ra.train.fp() == rb.train.fp() && ra.test.tp() == rb.test.tp() &&
                      ra.test.fp() == rb.test.fp() &&
                      ra.model_file_bytes == rb.model_file_bytes,
                  what + ": training differs for " + ra.model);
  }
}

// Semantic equality of two detection rounds: everything but wall clock.
void compare_rounds(const DetectRound& a, const DetectRound& b, Report& report,
                    const std::string& what) {
  for (const char* name : kModels) {
    const core::DetectionResult& da = a.detections.at(name);
    const core::DetectionResult& db = b.detections.at(name);
    bool same = da.windows.size() == db.windows.size() &&
                da.summary.average_accuracy == db.summary.average_accuracy &&
                da.summary.min_accuracy == db.summary.min_accuracy &&
                da.summary.packets == db.summary.packets &&
                da.summary.memory_kb == db.summary.memory_kb &&
                da.summary.confusion.tp() == db.summary.confusion.tp() &&
                da.summary.confusion.fp() == db.summary.confusion.fp() &&
                da.summary.confusion.fn() == db.summary.confusion.fn() &&
                da.model_size_kb == db.model_size_kb;
    for (std::size_t w = 0; same && w < da.windows.size(); ++w) {
      same = da.windows[w].packets == db.windows[w].packets &&
             da.windows[w].predicted_malicious == db.windows[w].predicted_malicious &&
             da.windows[w].truth_malicious == db.windows[w].truth_malicious;
    }
    report.expect(same, what + ": detection differs for " + name);
  }
}

}  // namespace

void run_paper(const Options& opt, Tracer& tracer, Report& report) {
  Tracer off{false, tracer.run_id()};
  // A traced run measures one detection round per pass.
  const PaperPass bare = paper_pass(opt.seed, off, report, opt.trace ? 0.0 : opt.seconds);
  const DetectRound& b = bare.rounds.front();
  for (std::size_t i = 1; i < bare.rounds.size(); ++i)
    compare_rounds(b, bare.rounds[i], report, "paper repeated detection");

  const capture::Dataset& ds = bare.generation.dataset;
  report.output("dataset.rows", static_cast<double>(ds.size()));
  report.output("dataset.malicious", static_cast<double>(ds.malicious_count()));
  report.output("dataset.infected_devices",
                static_cast<double>(bare.generation.infected_devices));
  for (const char* name : kModels) {
    const ids::IdsSummary& summary = b.detections.at(name).summary;
    const std::string p = name;
    report.output(p + ".windows", static_cast<double>(summary.windows));
    report.output(p + ".rows", static_cast<double>(summary.packets));
    report.output(p + ".truth", static_cast<double>(truth_of(summary)));
    report.output(p + ".predicted", static_cast<double>(predicted_of(summary)));
    report.output(p + ".acc", summary.average_accuracy);
  }

  if (!opt.trace) {
    EndToEnd e2e;
    e2e.setup_s = {bare.setup_s};
    e2e.peak_rss_mb = bare.peak_rss_mb;
    for (const DetectRound& round : bare.rounds) {
      double seconds = 0.0;
      std::uint64_t rows = 0;
      for (const char* name : kModels) {
        const core::DetectionResult& det = round.detections.at(name);
        seconds += round.detect_s.at(name);
        rows += det.summary.packets;
        for (const ids::WindowReport& w : det.windows)
          e2e.close_ms.push_back(
              static_cast<double>(w.cpu_feature_ns + w.cpu_inference_ns) * 1e-6);
      }
      e2e.pkts_per_s.push_back(static_cast<double>(rows) / seconds);
    }
    e2e.report_to(report);
    return;
  }

  const PaperPass traced = paper_pass(opt.seed, tracer, report, 0.0);
  const DetectRound& t = traced.rounds.front();
  compare_training(bare, traced, report, "paper traced training vs train_all_models");
  compare_rounds(b, t, report, "paper wrapped vs bare serving");

  std::vector<double> feature_ms;
  std::uint64_t windows = 0, rows = 0, truth = 0, predicted = 0;
  for (const char* name : kModels) {
    const std::string m = name;
    const core::DetectionResult& det = t.detections.at(name);
    for (const ids::WindowReport& w : det.windows)
      feature_ms.push_back(static_cast<double>(w.cpu_feature_ns) * 1e-6);
    windows += det.summary.windows;
    rows += det.summary.packets;
    truth += truth_of(det.summary);
    predicted += predicted_of(det.summary);
    const double score_s = t.score_s.at(m);
    report.metric("ml.fit_s." + m, tracer.total_s("ml.fit." + m), "s");
    report.metric("ml.split_score_s." + m, tracer.total_s("ml.split_score." + m), "s");
    report.metric("ml.score_s." + m, score_s, "s");
    report.metric("ml.score_us_per_row." + m,
                  score_s * 1e6 / static_cast<double>(t.score_rows.at(m)), "us");
    report.metric("core.detect_self_s." + m, tracer.self_s("core.run_detection." + m), "s");
    report.metric("ids.acc." + m, det.summary.average_accuracy, "fraction");
  }
  report.metric("core.generate_s", traced.generate_s, "s");
  report.metric("core.train_s", traced.train_s, "s");
  report.metric("features.extract_s", tracer.total_s("features.extract_features"), "s");
  report.metric("features.window_ms", median(feature_ms), "ms", feature_ms.size());
  report.metric("net.events", static_cast<double>(traced.net_events), "count");
  report.metric("net.events_per_s", static_cast<double>(traced.net_events) / traced.sim_s,
                "1/s");
  report.metric("ids.windows", static_cast<double>(windows), "count");
  report.metric("ids.rows", static_cast<double>(rows), "count");
  report.metric("ids.truth", static_cast<double>(truth), "count");
  report.metric("ids.predicted", static_cast<double>(predicted), "count");
  report.metric("obs.trace_overhead", traced.wall_s / bare.wall_s, "ratio");
}

}  // namespace perfbench
