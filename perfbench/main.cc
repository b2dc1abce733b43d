// perfbench: one benchmark for concord's learn, check and serve paths.
//
//   perfbench --workload <learn-w1|check-w7|serve-e2> --seed <n> --seconds <s>
//             --trace <0|1> --spec perfbench/workloads.json
//             --concord <path to the concord CLI> --work-dir <scratch dir>
//             [--source-id <commit or tree hash>]
//
// Prints named metrics and provenance, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits 1 when an output
// check failed and 2 on a usage or set-up error (without a result line).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench/harness.h"
#include "src/format/json.h"
#include "src/util/io.h"

namespace {

using perfbench::Options;
using perfbench::RunResult;

bool ParseArgs(int argc, char** argv, Options* options, std::string* spec_path,
               std::string* error) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--spec") {
      *spec_path = value;
    } else if (flag == "--concord") {
      options->concord_path = value;
    } else if (flag == "--work-dir") {
      options->work_dir = value;
    } else if (flag == "--source-id") {
      options->source_id = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (options->workload.empty() || spec_path->empty() || options->work_dir.empty()) {
    *error = "--workload, --spec and --work-dir are required";
    return false;
  }
  if (!(options->seconds > 0)) {
    *error = "--seconds must be positive";
    return false;
  }
  std::optional<concord::JsonValue> spec =
      concord::JsonValue::Parse(concord::ReadFile(*spec_path), error);
  if (!spec) {
    return false;
  }
  const concord::JsonValue* workloads = spec->Find("workloads");
  const concord::JsonValue* workload =
      workloads == nullptr ? nullptr : workloads->Find(options->workload);
  if (workload == nullptr) {
    *error = "unknown workload " + options->workload;
    return false;
  }
  options->spec = *workload;
  if (!have_seed) {
    options->seed = static_cast<uint64_t>(spec->GetInt("default_seed").value_or(1));
  }
  return true;
}

void PrintResult(RunResult& result) {
  for (const perfbench::Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.Fail("metric " + metric.name + " is not a finite number");
    }
  }
  for (const std::string& line : result.lines) {
    std::printf("%s\n", line.c_str());
  }
  std::string metrics;
  for (const perfbench::Metric& metric : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(metric.value) ? metric.value : 0.0);
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + metric.name +
               "\": {\"value\": " + value + ", \"unit\": \"" + metric.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string spec_path;
  std::string error;
  try {
    if (!ParseArgs(argc, argv, &options, &spec_path, &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 2;
    }
    RunResult result;
    if (options.workload == "learn-w1") {
      result = perfbench::RunLearnW1(options);
    } else if (options.workload == "check-w7") {
      result = perfbench::RunCheckW7(options);
    } else if (options.workload == "serve-e2") {
      result = perfbench::RunServeE2(options);
    } else {
      std::fprintf(stderr, "perfbench: no runner for workload %s\n", options.workload.c_str());
      return 2;
    }
    if (result.attempted == 0) {
      std::fprintf(stderr, "perfbench: the run attempted no operation\n");
      return 2;
    }
    PrintResult(result);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
