// perfbench — runs one workload and prints its result as the last line of
// standard output:
//
//   perfbench --workload <redistribute|wan_partition> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// reports the per-layer metrics of a traced run (see README.md).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "stats.h"

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, Args* out) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      out->workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      out->seed = std::strtoull(val, &end, 10);
    } else if (key == "--seconds") {
      out->seconds = std::strtod(val, &end);
    } else if (key == "--trace") {
      out->trace = std::strcmp(val, "0") != 0;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && argc % 2 == 1 && out->seconds > 0;
}

void PrintResult(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <redistribute|wan_partition> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  Result r;
  if (args.workload == "redistribute") {
    r = RunRedistribute(args);
  } else if (args.workload == "wan_partition") {
    r = RunWanPartition(args);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  PrintResult(r);
  return 0;
}
