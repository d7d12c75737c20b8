// Repository benchmark binary. Runs one workload and prints its report as
// one JSON line on stdout; perfbench/run.py builds this binary, checks the
// report's outputs and prints the benchmark result.
//
//   perfbench --workload paper|testbed-1k|fleet-100k|selftest --seed N
//             [--seconds S] [--trace 0|1] [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with the bare models served.
// --trace 1 runs that same pass, then a traced pass (spans around every
// public call, model scoring timed through TimedClassifier) whose outputs
// must equal the bare pass's, and reports the per-layer metrics.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N [--seconds S] "
               "[--trace 0|1] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    try {
      if (std::strcmp(flag, "--workload") == 0) {
        opt.workload = value;
      } else if (std::strcmp(flag, "--seed") == 0) {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (std::strcmp(flag, "--seconds") == 0) {
        opt.seconds = std::stod(value);
      } else if (std::strcmp(flag, "--trace") == 0) {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (std::strcmp(flag, "--trace-out") == 0) {
        opt.trace_out = value;
      } else {
        usage("unknown flag");
      }
    } catch (const std::logic_error&) {
      usage("bad number");
    }
  }
  if (opt.workload.empty() || !have_seed) usage("--workload and --seed are required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const std::uint64_t run_id =
      (static_cast<std::uint64_t>(getpid()) << 32) ^
      static_cast<std::uint64_t>(perfbench::Clock::now().time_since_epoch().count()) ^ opt.seed;
  perfbench::Tracer tracer{opt.trace || opt.workload == "selftest", run_id};
  perfbench::Report report;
  try {
    if (opt.workload == "paper") {
      perfbench::run_paper(opt, tracer, report);
    } else if (opt.workload == "testbed-1k") {
      perfbench::run_testbed_1k(opt, tracer, report);
    } else if (opt.workload == "fleet-100k") {
      perfbench::run_fleet_100k(opt, tracer, report);
    } else if (opt.workload == "selftest") {
      perfbench::selftest_testbed(opt, tracer, report);
      perfbench::selftest_fleet(opt, tracer, report);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (tracer.enabled() && !opt.trace_out.empty() &&
      !tracer.write_json(opt.trace_out, opt.workload)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", opt.trace_out.c_str());
    return 1;
  }
  std::printf("%s\n", report.to_json(opt).c_str());
  return 0;
}
