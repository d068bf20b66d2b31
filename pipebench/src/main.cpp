//===-- pipebench/src/main.cpp - Pipeline benchmark command line ----------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// Usage:
//   pipebench --workload <executor-sampled|render-full|live-collect>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>]
//
// Runs one workload of the pipeline benchmark (see Pipeline.h for the
// workloads and why each was chosen) and prints a readable summary, the
// host block, and as its last line one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 is the separate traced run that reports
// the per-layer metrics and writes the span timeline (Chrome trace-event
// JSON, loadable in ui.perfetto.dev) under the work directory.
//
// Exit status: 0 when every check passed, 1 when a check failed (the
// result line still prints, with "correct": false), 2 on a usage error.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace pipebench;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <executor-sampled|render-full|"
               "live-collect> --seed <n> --seconds <s> --trace <0|1> "
               "[--workdir <dir>]\n",
               Argv0);
  return 2;
}

bool parseNumber(const char *Text, double &Out) {
  char *End = nullptr;
  Out = std::strtod(Text, &End);
  return End != Text && *End == '\0';
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions O;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage(Argv[0]);
    const char *Value = Argv[++I];
    double Number = 0;
    if (Arg == "--workload") {
      const auto W = workloadByName(Value);
      if (!W)
        return usage(Argv[0]);
      O.Workload = *W;
      HaveWorkload = true;
    } else if (Arg == "--seed" && parseNumber(Value, Number) && Number >= 0) {
      O.Seed = std::strtoull(Value, nullptr, 10);
    } else if (Arg == "--seconds" && parseNumber(Value, Number) &&
               Number > 0) {
      O.Seconds = Number;
    } else if (Arg == "--trace" && (std::strcmp(Value, "0") == 0 ||
                                    std::strcmp(Value, "1") == 0)) {
      O.Trace = Value[0] == '1';
    } else if (Arg == "--workdir") {
      O.WorkDir = Value;
    } else {
      return usage(Argv[0]);
    }
  }
  if (!HaveWorkload)
    return usage(Argv[0]);

  const BenchResult R = runBenchmark(O);

  std::printf("pipebench %s seed=%llu seconds=%g trace=%d\n",
              workloadName(O.Workload),
              static_cast<unsigned long long>(O.Seed), O.Seconds,
              O.Trace ? 1 : 0);
  std::printf("host: %s\n", hostJson(R.Host).c_str());
  for (const Metric &M : R.Metrics)
    std::printf("  %-36s %16.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  if (!O.Trace)
    std::printf("verdict_lag_tail_ms is p%g of %zu verdict lags\n",
                R.LagTailPercentile, R.LagSamples);
  if (!R.TimelinePath.empty())
    std::printf("span timeline: %s\n", R.TimelinePath.c_str());
  for (const std::string &E : R.Errors)
    std::printf("check failed: %s\n", E.c_str());
  std::printf("%s\n", resultJson(R).c_str());
  std::fflush(stdout);
  return R.Correct ? 0 : 1;
}
