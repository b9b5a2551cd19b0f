// kzbench — the repo benchmark's measuring program (README.md).
//
//   kzbench --workload month|fleet|fleet_hits --seed N --seconds S --trace 0|1
//
// Prints one JSON object on stdout: the operation ledger, the end-to-end
// metrics (untraced) or the per-layer metrics plus the traced run's own
// end-to-end numbers (traced), failed checks and notes. kzbench/run.py
// builds this program, stamps the host and reduces the object to the
// benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  kzbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else {
      std::fprintf(stderr, "kzbench: unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (opt.seconds <= 0.0) {
    std::fprintf(stderr, "kzbench: --seconds must be positive\n");
    return 2;
  }
  try {
    kzbench::Result result;
    if (opt.workload == "month") {
      result = kzbench::run_month(opt);
    } else if (opt.workload == "fleet" || opt.workload == "fleet_hits") {
      result = kzbench::run_fleet(opt, opt.workload == "fleet_hits");
    } else {
      std::fprintf(stderr, "kzbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
    std::printf("%s\n", result.to_json(opt.workload, opt.seed, opt.trace).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kzbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
