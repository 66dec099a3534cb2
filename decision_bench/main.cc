// decision_bench: runs one workload of the dispatch-decision benchmark in
// this process and prints its result as one JSON line (the last line of
// stdout). run.py builds this binary, starts one process per workload and
// turns the JSON into the benchmark's output.
//
//   decision_bench --workload fig7_stddgn [--seed 7] [--seconds 10]
//                  [--trace 0|1] [--trace-file out.json] [--setup-only 0|1]
//
// Exit code 0 when every output check passed (or a set-up-only run
// finished), 1 when a check failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "nn/gemm.h"
#include "obs/trace.h"
#include "workloads.h"

namespace {

bool ParseFlag(const char* value, bool* flag) {
  *flag = std::strcmp(value, "1") == 0;
  return *flag || std::strcmp(value, "0") == 0;
}

bool ParseArgs(int argc, char** argv, dpdp::bench::Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value, &end);
      if (!(options->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (!ParseFlag(value, &options->trace)) return false;
    } else if (key == "--trace-file") {
      options->trace_file = value;
    } else if (key == "--setup-only") {
      if (!ParseFlag(value, &options->setup_only)) return false;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !options->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  dpdp::bench::Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: decision_bench --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-file PATH] "
                 "[--setup-only 0|1]\n");
    return 2;
  }
  // Knob isolation: every setting the measured path reads is set here, not
  // inherited from DPDP_* variables. One thread for the process-wide pool
  // (read when it is first created) and for the GEMM fan-out; the tracer
  // is forced off until the timed region of a traced run.
  setenv("DPDP_THREADS", "1", /*overwrite=*/1);
  dpdp::nn::SetGemmThreads(1);
  dpdp::obs::SetTraceEnabled(false);

  dpdp::bench::Report report;
  if (!dpdp::bench::RunWorkload(options, &report)) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  if (options.setup_only) {
    std::printf("%s\n", report.ToJson(options).c_str());
    return 0;
  }
  if (options.trace) {
    const dpdp::Status written =
        dpdp::obs::WriteTraceFile(options.trace_file);
    report.Check("trace_written", written.ok(),
                 written.ok() ? options.trace_file : written.ToString());
  }
  std::printf("%s\n", report.ToJson(options).c_str());
  return report.correct() ? 0 : 1;
}
