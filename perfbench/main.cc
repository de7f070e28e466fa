// The repository benchmark. One invocation runs one workload for a fixed
// wall budget and prints, as its last stdout line, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured with
// tracing off; with --trace 1 they are the per-layer set, read from the
// spans and counters the library already emits. Lines above the result,
// each starting with '#', carry thread counts, sample counts and check
// verdicts. Invoke through perfbench/run.py, which builds this binary
// from the checkout first:
//
//   python3 perfbench/run.py --workload offline_batch --seed 1 --seconds 20 --trace 0

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "perfbench/common.h"
#include "src/runtime/runtime.h"

namespace {

perfbench::Options ParseArgs(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) perfbench::Die("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && value[0] != '-' && *end == '\0';
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     std::isfinite(opt.seconds) && opt.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") perfbench::Die("--trace takes 0 or 1");
      opt.trace = value == "1";
      have_trace = true;
    } else if (flag == "--workdir") {
      opt.workdir = value;
    } else {
      perfbench::Die("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      opt.workdir.empty()) {
    perfbench::Die(
        "usage: dlsys_perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --workdir <dir>");
  }
  return opt;
}

/// Prints the notes and the result line. Every declared metric of the
/// run's kind must be present and finite, and nothing else.
void PrintResult(const perfbench::Result& r, bool trace) {
  const perfbench::MetricList& declared =
      trace ? perfbench::PerLayerMetrics() : perfbench::EndToEndMetrics();
  if (r.metrics.size() != declared.size()) {
    perfbench::Die("the run produced metrics that are not declared");
  }
  std::string metrics;
  for (const auto& [name, unit] : declared) {
    auto it = r.metrics.find(name);
    if (it == r.metrics.end()) {
      perfbench::Die(std::string("metric ") + name + " was not measured");
    }
    if (!std::isfinite(it->second)) {
      perfbench::Die(std::string("metric ") + name + " is not finite");
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name, it->second, unit);
    metrics += buf;
  }
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    perfbench::Options opt = ParseArgs(argc, argv);
    // Saved model files live in a per-process directory, removed on exit,
    // so concurrent runs never read each other's parameters.
    opt.workdir += "/run-" + std::to_string(getpid());
    std::filesystem::create_directories(opt.workdir);
    struct RemoveOnExit {
      std::string dir;
      ~RemoveOnExit() {
        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
      }
    } cleanup{opt.workdir};
    // Intra-op threading stays off in every workload, pinned before any
    // timer starts; the only other thread is online_serve's pool worker.
    dlsys::RuntimeConfig::SetThreads(1);
    perfbench::Result result;
    if (opt.workload == "offline_batch") {
      result = perfbench::RunOfflineBatch(opt);
    } else if (opt.workload == "online_serve") {
      result = perfbench::RunOnlineServe(opt);
    } else if (opt.workload == "fleet_chaos") {
      result = perfbench::RunFleetChaos(opt);
    } else {
      perfbench::Die("unknown workload '" + opt.workload +
                     "' (offline_batch, online_serve, fleet_chaos)");
    }
    if (result.attempted < 1) perfbench::Die("no operation attempted");
    if (opt.trace) perfbench::ZeroBypassedLayers(&result);
    PrintResult(result, opt.trace);
    return result.correct && result.failed == 0 ? 0 : 1;
  } catch (const perfbench::BenchError& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.message.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
