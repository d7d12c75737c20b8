// bench_infer: microbenchmark of batched inference (Table II framing),
// sweeping batch size × model × kernel through the three paper detectors.
//
// Each sweep point scores the same deterministic feature matrix, drawn
// evenly across a capture that holds benign and attack phases, with one
// of two kernels: "scalar" (per-row predict(), the pre-overhaul loop, run
// through the PerRowPredict adapter below) or "batched" (the cache-blocked
// score_batch kernels). The kernels are bit-identical by construction, so
// every kernel and batch size must produce the identical verdict sequence:
// the bench hashes the verdicts and fails hard on any mismatch. It also
// fails when a model calls every eval row one class, since a kernel that
// returned a constant would then pass every other gate. The checksum is
// the deterministic, golden-gateable output; packets/s, CPU%, cpu-us/row
// and RSS are machine-dependent and reported but never gated.
//
// A fourth model token "cnn-int8" sweeps the int8-quantized CNN
// deployment kernel (the artifact the model lifecycle serves, DESIGN.md
// §14). Quantized verdicts are deterministic but not bit-identical to
// float, so that token is gated two ways instead: its own checksum line
// in the golden (batch invariance within the token) plus a
// quantized-vs-float accuracy-parity bar (≤2% verdict mismatches).
//
// The JSON's config block records the host's CPU count and the block
// kernel each paper model selected on it: K-Means and the CNN "avx2",
// "sse2" or "scalar" (read from the ml-private kernel headers, as the
// kernel tests do); the RF has one kernel on every CPU, "packed-levels"
// (DESIGN.md §10).
//
// Outputs BENCH_INFER.json. With --golden FILE the verdict checksums are
// checked against the committed golden (CI perf-smoke); --write-golden
// regenerates it. --min-speedup S additionally requires the batched
// kernel to reach S× the scalar packets/s at batch 64 on at least one
// model (the PR acceptance gate; run on an otherwise idle machine).
//
// Usage:
//   bench_infer [--small] [--out FILE] [--golden FILE]
//               [--write-golden FILE] [--min-speedup S]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/pipeline.hpp"
#include "core/scenario.hpp"
#include "features/extractor.hpp"
#include "ml/classifier.hpp"
#include "ml/cnn.hpp"
#include "ml/cnn_kernel.hpp"
#include "ml/kmeans_kernel.hpp"
#include "ml/model_store.hpp"
#include "util/logging.hpp"

using namespace ddoshield;

namespace {

constexpr std::uint64_t kScenarioSeed = 1;

struct RunResult {
  std::string model;
  std::size_t batch = 0;
  std::string kernel;  // "scalar" | "batched" | "int8"
  std::uint64_t rows_per_pass = 0;
  std::uint64_t flagged = 0;  // eval rows called malicious (deterministic)
  std::uint64_t rows_scored = 0;
  double wall_seconds = 0.0;
  double packets_per_sec = 0.0;   // machine-dependent
  double cpu_percent = 0.0;       // process user+sys over wall
  double cpu_us_per_row = 0.0;    // machine-dependent (cost-per-packet view)
  std::uint64_t weight_bytes = 0;  // resident model parameters
  long peak_rss_kb = 0;
  std::uint64_t verdict_checksum = 0;    // deterministic, gated
};

/// Deterministic quantized-vs-float agreement on the eval matrix (the
/// perf-smoke accuracy-parity gate for the int8 CNN deployment kernel).
struct Int8Parity {
  bool measured = false;
  std::uint64_t rows = 0;
  std::uint64_t mismatches = 0;
  double mismatch_frac() const {
    return rows ? static_cast<double>(mismatches) / static_cast<double>(rows) : 0.0;
  }
};

long peak_rss_kb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

double cpu_seconds() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto to_s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return to_s(usage.ru_utime) + to_s(usage.ru_stime);
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 0x100000001b3ull;
}

std::uint64_t checksum_verdicts(const ml::Verdicts& v) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const int x : v) h = fnv1a(h, static_cast<std::uint64_t>(static_cast<unsigned>(x)));
  return h;
}

/// The shared evaluation set: `rows` rows of a short deterministic capture,
/// row i taken from capture row i * capture_rows / rows. Drawn evenly, the
/// rows span the capture's benign and attack phases alike (the capture's
/// leading rows are all benign).
struct EvalSet {
  ml::DesignMatrix x;
  std::uint64_t truth_malicious = 0;
};

EvalSet make_eval_set(const ml::DesignMatrix& base, const std::vector<int>& labels,
                      std::size_t rows) {
  EvalSet eval{ml::DesignMatrix{base.cols()}};
  eval.x.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t src = i * base.rows() / rows;
    eval.x.add_row(base.row(src));
    eval.truth_malicious += labels.at(src) != 0 ? 1 : 0;
  }
  return eval;
}

std::vector<ml::DesignMatrix> split_batches(const ml::DesignMatrix& x, std::size_t batch) {
  std::vector<ml::DesignMatrix> out;
  out.reserve((x.rows() + batch - 1) / batch);
  for (std::size_t base = 0; base < x.rows(); base += batch) {
    ml::DesignMatrix b{x.cols()};
    const std::size_t n = std::min(batch, x.rows() - base);
    b.reserve(n);
    for (std::size_t i = 0; i < n; ++i) b.add_row(x.row(base + i));
    out.push_back(std::move(b));
  }
  return out;
}

/// The scalar kernel: scores a batch by calling the wrapped model's
/// predict() once per row, behind the same Classifier interface as the
/// batched kernels.
class PerRowPredict final : public ml::Classifier {
 public:
  explicit PerRowPredict(const ml::Classifier& model) : model_{model} {}

  std::string name() const override { return model_.name(); }
  void fit(const ml::DesignMatrix&, const std::vector<int>&) override {
    throw std::logic_error("PerRowPredict: scoring only");
  }
  int predict(std::span<const double> row) const override { return model_.predict(row); }
  void score_batch(const ml::DesignMatrix& x, ml::Verdicts& out) const override {
    out.clear();
    out.reserve(x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i) out.push_back(model_.predict(x.row(i)));
  }
  bool trained() const override { return model_.trained(); }
  void save(util::ByteWriter& w) const override { model_.save(w); }
  void load(util::ByteReader&) override { throw std::logic_error("PerRowPredict: scoring only"); }
  std::uint64_t parameter_bytes() const override { return model_.parameter_bytes(); }
  std::uint64_t inference_scratch_bytes() const override {
    return model_.inference_scratch_bytes();
  }

 private:
  const ml::Classifier& model_;
};

void score_pass(const ml::Classifier& model, const std::vector<ml::DesignMatrix>& batches,
                ml::Verdicts* sink) {
  ml::Verdicts v;
  for (const ml::DesignMatrix& b : batches) {
    model.score_batch(b, v);
    if (sink) sink->insert(sink->end(), v.begin(), v.end());
  }
}

RunResult run_point(const ml::Classifier& trained, const ml::DesignMatrix& eval, std::size_t batch,
                    bool batched_kernel, double min_measure_seconds) {
  const PerRowPredict per_row{trained};
  const ml::Classifier& model = batched_kernel ? trained : per_row;
  const std::vector<ml::DesignMatrix> batches = split_batches(eval, batch);

  RunResult r;
  r.model = model.name();
  r.batch = batch;
  r.kernel = batched_kernel ? "batched" : "scalar";
  r.rows_per_pass = eval.rows();

  // Untimed pass: warms caches and produces the gated verdict sequence.
  ml::Verdicts verdicts;
  verdicts.reserve(eval.rows());
  score_pass(model, batches, &verdicts);
  for (const int v : verdicts) r.flagged += v != 0 ? 1 : 0;
  r.verdict_checksum = checksum_verdicts(verdicts);

  // Timed passes: repeat until the wall budget is met so fast kernels
  // still accumulate a measurable interval.
  const double cpu0 = cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  double wall = 0.0;
  while (wall < min_measure_seconds) {
    score_pass(model, batches, nullptr);
    r.rows_scored += eval.rows();
    wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  r.wall_seconds = wall;
  const double cpu_delta = cpu_seconds() - cpu0;
  r.packets_per_sec = static_cast<double>(r.rows_scored) / (wall > 0 ? wall : 1e-9);
  r.cpu_percent = 100.0 * cpu_delta / (wall > 0 ? wall : 1e-9);
  r.cpu_us_per_row =
      r.rows_scored ? cpu_delta * 1e6 / static_cast<double>(r.rows_scored) : 0.0;
  r.weight_bytes = model.parameter_bytes();
  r.peak_rss_kb = peak_rss_kb();
  return r;
}

void write_json(const std::string& path, const std::vector<RunResult>& runs,
                const std::vector<std::size_t>& batch_sizes, const EvalSet& eval, bool small,
                const Int8Parity& parity) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"bench\": \"bench_infer\",\n";
  out << "  \"config\": {\n";
  out << "    \"sweep\": \"" << (small ? "small" : "full") << "\",\n";
  out << "    \"scenario_seed\": " << kScenarioSeed << ",\n";
  out << "    \"eval_rows\": " << eval.x.rows() << ",\n";
  out << "    \"eval_truth_malicious\": " << eval.truth_malicious << ",\n";
  out << "    \"host_cpus\": " << std::thread::hardware_concurrency() << ",\n";
  const bool kmeans_avx2 =
      ml::kmeans_kernel::block_kernel() == ml::kmeans_kernel::nearest_block_avx2;
  out << "    \"kernels\": {\"rf\": \"packed-levels\", \"kmeans\": \""
      << (kmeans_avx2 ? "avx2" : "scalar") << "\", \"cnn\": \"" << ml::cnn_kernel::kernels().name
      << "\"},\n";
  out << "    \"batch_sizes\": [";
  for (std::size_t i = 0; i < batch_sizes.size(); ++i) out << (i ? ", " : "") << batch_sizes[i];
  out << "],\n";
  out << "    \"notes\": \"verdict_checksum and flagged are deterministic; the checksum is "
         "identical across kernels and batch sizes (gated); packets_per_sec, cpu_percent, "
         "cpu_us_per_row and peak_rss_kb are machine-dependent and not gated; cnn-int8 is "
         "checksum-stable but not bit-identical to cnn and is gated by int8_parity instead; "
         "host_cpus and kernels describe the host the sweep ran on\"\n";
  out << "  },\n";
  out << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"model\": \"%s\", \"batch\": %zu, \"kernel\": \"%s\",\n"
                  "     \"rows_scored\": %llu, \"wall_seconds\": %.3f, "
                  "\"packets_per_sec\": %.0f, \"cpu_percent\": %.1f, "
                  "\"cpu_us_per_row\": %.3f,\n"
                  "     \"weight_bytes\": %llu, \"peak_rss_kb\": %ld, "
                  "\"flagged\": %llu, \"verdict_checksum\": \"%016llx\"}%s\n",
                  r.model.c_str(), r.batch, r.kernel.c_str(),
                  static_cast<unsigned long long>(r.rows_scored), r.wall_seconds,
                  r.packets_per_sec, r.cpu_percent, r.cpu_us_per_row,
                  static_cast<unsigned long long>(r.weight_bytes), r.peak_rss_kb,
                  static_cast<unsigned long long>(r.flagged),
                  static_cast<unsigned long long>(r.verdict_checksum),
                  i + 1 < runs.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n";
  // Per-model batched-vs-scalar speedup at each batch size.
  out << "  \"comparison\": [";
  bool first = true;
  for (const RunResult& b : runs) {
    if (b.kernel != "batched") continue;
    for (const RunResult& s : runs) {
      if (s.kernel != "scalar" || s.model != b.model || s.batch != b.batch) continue;
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\n    {\"model\": \"%s\", \"batch\": %zu, "
                    "\"scalar_packets_per_sec\": %.0f, \"batched_packets_per_sec\": %.0f, "
                    "\"speedup\": %.2f}",
                    first ? "" : ",", b.model.c_str(), b.batch, s.packets_per_sec,
                    b.packets_per_sec,
                    s.packets_per_sec > 0 ? b.packets_per_sec / s.packets_per_sec : 0.0);
      out << buf;
      first = false;
    }
  }
  out << (first ? "" : "\n  ") << "],\n";
  // Deterministic quantized-vs-float verdict agreement on the eval matrix
  // (the int8 CNN is gated by parity, not the bit-identity gate).
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"int8_parity\": {\"measured\": %s, \"rows\": %llu, "
                  "\"mismatches\": %llu, \"mismatch_frac\": %.6f}\n",
                  parity.measured ? "true" : "false",
                  static_cast<unsigned long long>(parity.rows),
                  static_cast<unsigned long long>(parity.mismatches), parity.mismatch_frac());
    out << buf;
  }
  out << "}\n";

  std::ofstream file{path};
  file << out.str();
  std::printf("wrote %s\n", path.c_str());
}

// Golden format: one "model batch rows checksum" line per (model, batch)
// pair ('#' lines are comments). Checksums come from the batched (or int8)
// runs but are kernel-independent by the equality gate.
int check_golden(const std::string& path, const std::vector<RunResult>& runs) {
  std::ifstream file{path};
  if (!file) {
    std::fprintf(stderr, "GOLDEN FAIL: cannot open %s\n", path.c_str());
    return 1;
  }
  int failures = 0;
  std::size_t checked = 0;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in{line};
    std::string model;
    std::size_t batch = 0;
    std::uint64_t rows = 0;
    std::string checksum_hex;
    if (!(in >> model >> batch >> rows >> checksum_hex)) {
      std::fprintf(stderr, "GOLDEN FAIL: malformed line '%s'\n", line.c_str());
      return 1;
    }
    const std::uint64_t checksum = std::stoull(checksum_hex, nullptr, 16);
    bool found = false;
    for (const RunResult& r : runs) {
      if ((r.kernel != "batched" && r.kernel != "int8") || r.model != model ||
          r.batch != batch) {
        continue;
      }
      found = true;
      ++checked;
      if (r.rows_per_pass != rows || r.verdict_checksum != checksum) {
        std::fprintf(stderr,
                     "GOLDEN FAIL: %s batch=%zu expected rows=%llu checksum=%016llx, "
                     "got rows=%llu checksum=%016llx\n",
                     model.c_str(), batch, static_cast<unsigned long long>(rows),
                     static_cast<unsigned long long>(checksum),
                     static_cast<unsigned long long>(r.rows_per_pass),
                     static_cast<unsigned long long>(r.verdict_checksum));
        ++failures;
      }
    }
    if (!found) {
      std::fprintf(stderr, "GOLDEN FAIL: no run for model=%s batch=%zu\n", model.c_str(), batch);
      ++failures;
    }
  }
  if (checked == 0) {
    std::fprintf(stderr, "GOLDEN FAIL: %s contains no sweep points\n", path.c_str());
    return 1;
  }
  if (failures == 0) {
    std::printf("golden OK: %zu sweep point(s) match %s\n", checked, path.c_str());
  }
  return failures == 0 ? 0 : 1;
}

void write_golden(const std::string& path, const std::vector<RunResult>& runs) {
  std::ofstream file{path};
  file << "# bench_infer deterministic verdicts: model batch rows checksum\n";
  file << "# Regenerate with: bench_infer --small --write-golden <this file>\n";
  char buf[128];
  for (const RunResult& r : runs) {
    if (r.kernel != "batched" && r.kernel != "int8") continue;
    std::snprintf(buf, sizeof(buf), "%s %zu %llu %016llx\n", r.model.c_str(), r.batch,
                  static_cast<unsigned long long>(r.rows_per_pass),
                  static_cast<unsigned long long>(r.verdict_checksum));
    file << buf;
  }
  std::printf("wrote golden %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IONBF, 0);
  util::Logger::instance().set_level(util::LogLevel::kWarn);

  bool small = false;
  std::string out_path = "BENCH_INFER.json";
  std::string golden_path;
  std::string write_golden_path;
  double min_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--small") {
      small = true;
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--golden") {
      golden_path = next();
    } else if (arg == "--write-golden") {
      write_golden_path = next();
    } else if (arg == "--min-speedup") {
      min_speedup = std::stod(next());
    } else {
      std::fprintf(stderr,
                   "usage: bench_infer [--small] [--out FILE] [--golden FILE] "
                   "[--write-golden FILE] [--min-speedup S]\n");
      return 2;
    }
  }

  // --- setup: one short capture trains all three models and supplies the
  // evaluation rows.
  core::Scenario train = core::training_scenario(kScenarioSeed);
  train.device_count = 8;
  train.duration = util::SimTime::seconds(20);
  std::printf("[setup] generating %zu-device %.0f s capture...\n", train.device_count,
              train.duration.to_seconds());
  const core::GenerationResult gen = core::run_generation(train);
  std::printf("[setup] training rf / kmeans / cnn on %zu packets...\n", gen.dataset.size());
  const core::TrainedModels models = core::train_all_models(gen.dataset);

  const features::FeatureMatrix fm = features::extract_features(gen.dataset);
  ml::DesignMatrix base;
  std::vector<int> labels;
  core::to_design_matrix(fm, base, labels);
  const EvalSet eval_set = make_eval_set(base, labels, small ? 2048 : 8192);
  const ml::DesignMatrix& eval = eval_set.x;
  std::printf("[setup] eval: %zu of %zu capture rows, evenly spaced; %llu truly malicious\n",
              eval.rows(), base.rows(), static_cast<unsigned long long>(eval_set.truth_malicious));
  const double measure_seconds = small ? 0.15 : 0.5;

  const std::vector<std::size_t> batch_sizes =
      small ? std::vector<std::size_t>{1, 64} : std::vector<std::size_t>{1, 16, 64, 256};

  const auto print_run = [](const RunResult& r) {
    std::printf(
        "[run] %-8s batch=%-3zu %-7s packets/s=%10.0f cpu=%5.1f%% "
        "cpu-us/row=%7.3f weights=%llu B rss=%ld kB flagged=%llu checksum=%016llx\n",
        r.model.c_str(), r.batch, r.kernel.c_str(), r.packets_per_sec, r.cpu_percent,
        r.cpu_us_per_row, static_cast<unsigned long long>(r.weight_bytes), r.peak_rss_kb,
        static_cast<unsigned long long>(r.flagged),
        static_cast<unsigned long long>(r.verdict_checksum));
  };

  std::vector<RunResult> runs;
  for (const char* name : bench::kModelNames) {
    const ml::Classifier& model = models.get(name);
    for (const std::size_t batch : batch_sizes) {
      for (const bool batched : {false, true}) {
        runs.push_back(run_point(model, eval, batch, batched, measure_seconds));
        print_run(runs.back());
      }
    }
  }

  // --- int8-quantized CNN deployment point (DESIGN.md §14): the exact
  // artifact the lifecycle serves — a deserialize(serialize(cnn)) clone
  // with the quantized dense1 kernel switched on. Swept under its own
  // model token "cnn-int8" so the bit-identity gate below never pairs it
  // with the float CNN (dynamic quantization is deterministic but not
  // bit-identical); batch-chunking invariance is still gated within the
  // token. Quantization lives in the batched kernel, so there is no scalar
  // leg.
  auto cnn_int8_owned = ml::deserialize_model(ml::serialize_model(models.get("cnn")));
  auto* cnn_int8 = dynamic_cast<ml::Cnn1D*>(cnn_int8_owned.get());
  cnn_int8->adopt_deployment(models.get("cnn"));
  cnn_int8->set_quantized_inference(true);
  for (const std::size_t batch : batch_sizes) {
    runs.push_back(run_point(*cnn_int8, eval, batch, true, measure_seconds));
    RunResult& r = runs.back();
    r.model = "cnn-int8";
    r.kernel = "int8";
    // Resident weights: float conv/dense2 plus the int8 dense1 tables.
    r.weight_bytes = cnn_int8->parameter_bytes() + cnn_int8->quantized_parameter_bytes();
    print_run(r);
  }

  // --- int8 accuracy parity vs the float CNN (perf-smoke parity gate):
  // deterministic because both models and the eval matrix are pure
  // functions of the scenario seed, so the mismatch count is a gateable
  // number, not a tolerance band.
  Int8Parity parity;
  {
    ml::Verdicts float_v, int8_v;
    models.get("cnn").score_batch(eval, float_v);
    cnn_int8->score_batch(eval, int8_v);
    parity.measured = true;
    parity.rows = float_v.size();
    for (std::size_t i = 0; i < float_v.size(); ++i) parity.mismatches += float_v[i] != int8_v[i];
    std::printf("[parity] cnn-int8 vs cnn: mismatches=%llu/%llu (%.2f%%)\n",
                static_cast<unsigned long long>(parity.mismatches),
                static_cast<unsigned long long>(parity.rows), 100.0 * parity.mismatch_frac());
  }

  int exit_code = 0;
  constexpr double kMaxInt8MismatchFrac = 0.02;  // the CI accuracy-parity bar
  if (parity.mismatch_frac() > kMaxInt8MismatchFrac) {
    std::fprintf(stderr, "PARITY FAIL: cnn-int8 disagrees with cnn on %.2f%% of rows (max %.2f%%)\n",
                 100.0 * parity.mismatch_frac(), 100.0 * kMaxInt8MismatchFrac);
    exit_code = 1;
  }
  // Every kernel and batch size (pure chunking) must produce the model's
  // identical verdict sequence: each run is checked against the model's
  // first run.
  for (const RunResult& r : runs) {
    const RunResult& first = *std::find_if(
        runs.begin(), runs.end(), [&r](const RunResult& f) { return f.model == r.model; });
    if (r.verdict_checksum == first.verdict_checksum) continue;
    std::fprintf(stderr,
                 "DETERMINISM FAIL: %s batch=%zu %s checksum %016llx != batch=%zu %s %016llx\n",
                 r.model.c_str(), r.batch, r.kernel.c_str(),
                 static_cast<unsigned long long>(r.verdict_checksum), first.batch,
                 first.kernel.c_str(), static_cast<unsigned long long>(first.verdict_checksum));
    exit_code = 1;
  }
  // A one-class verdict stream cannot tell a working kernel from one that
  // returns a constant, so it would pass every gate above.
  for (const RunResult& r : runs) {
    if (r.flagged != 0 && r.flagged != r.rows_per_pass) continue;
    std::fprintf(stderr, "CLASS FAIL: %s batch=%zu %s flags %llu of %llu eval rows malicious\n",
                 r.model.c_str(), r.batch, r.kernel.c_str(),
                 static_cast<unsigned long long>(r.flagged),
                 static_cast<unsigned long long>(r.rows_per_pass));
    exit_code = 1;
  }

  // --- optional acceptance gate: batched kernel speedup at batch 64.
  if (min_speedup > 0.0) {
    double best = 0.0;
    std::string best_model = "none";
    for (const RunResult& b : runs) {
      if (b.kernel != "batched" || b.batch != 64) continue;
      for (const RunResult& s : runs) {
        if (s.kernel != "scalar" || s.model != b.model || s.batch != 64) continue;
        const double speedup = s.packets_per_sec > 0 ? b.packets_per_sec / s.packets_per_sec : 0;
        if (speedup > best) {
          best = speedup;
          best_model = b.model;
        }
      }
    }
    std::printf("best batch-64 speedup: %.2fx (%s)\n", best, best_model.c_str());
    if (best < min_speedup) {
      std::fprintf(stderr, "SPEEDUP FAIL: best batch-64 speedup %.2fx < required %.2fx\n", best,
                   min_speedup);
      exit_code = 1;
    }
  }

  write_json(out_path, runs, batch_sizes, eval_set, small, parity);
  if (!write_golden_path.empty()) write_golden(write_golden_path, runs);
  if (!golden_path.empty() && exit_code == 0) exit_code = check_golden(golden_path, runs);
  return exit_code;
}
