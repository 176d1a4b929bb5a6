// hdnn_perfbench: one workload of the host benchmark per invocation.
//
//   hdnn_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --result <result.json> [--trace-out <trace.json>]
//
// Prints human-readable tables on stdout and writes the machine-readable
// result to --result; perfbench/run.py builds this binary, runs it and
// turns the result into the benchmark's one-line JSON report.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--result") {
      opt.result_path = value;
    } else if (key == "--trace-out") {
      opt.trace_path = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (opt.result_path.empty() || !(opt.seconds > 0)) {
    std::fprintf(stderr, "usage: %s --workload <name> --seed <n> --seconds "
                         "<s> --trace <0|1> --result <path>\n", argv[0]);
    return 2;
  }

  perfbench::Result res;
  try {
    if (opt.workload == "serve_tiny_pynq") {
      perfbench::RunServe(opt, res);
    } else if (opt.workload == "flow_zoo") {
      perfbench::RunFlowZoo(opt, res);
    } else if (opt.workload == "sim_paper") {
      perfbench::RunSimPaper(opt, res);
    } else if (opt.workload == "fleet_soak") {
      perfbench::RunFleetSoak(opt, res);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s aborted: %s\n", opt.workload.c_str(),
                 e.what());
    return 3;
  }
  for (const std::string& e : res.errors) {
    std::fprintf(stderr, "FAIL: %s\n", e.c_str());
  }
  res.WriteJson(opt.result_path);
  return 0;
}
