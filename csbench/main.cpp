// csbench — the ConfigSynth end-to-end benchmark program.
//
//   csbench --workload scale|sweep|serve|churn --seed <n> --seconds <s>
//           --trace 0|1 [--server <configsynth_server>] [--work-dir <dir>]
//
// Prints a few human-readable lines (backend, build type, nproc, checks,
// self-test) and, as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// README.md in this directory describes the workloads and the metrics.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "csbench.h"
#include "util/strings.h"

#ifndef CSBENCH_BUILD_TYPE
#define CSBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace csbench;

struct MetricSpec {
  const char* name;
  const char* unit;
  /// The workloads that must set the metric (space-separated); nullptr
  /// for all. Elsewhere it belongs to a layer the workload does not pass
  /// through and is printed as 0.
  const char* on = nullptr;
};

constexpr const char* kDelta = "churn";
constexpr const char* kService = "serve";
constexpr const char* kLayerShare = "scale sweep";

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},       {"ops_per_s", "ops/s"},  {"op_p50_ms", "ms"},
    {"op_p99_ms", "ms"},    {"peak_rss_mb", "MB"},
};

// Counts of effort ("count/op") are per operation, so they do not grow
// with the operations a run fits in.
constexpr MetricSpec kPerLayer[] = {
    {"topology.routes_ms", "ms"},
    {"topology.route_pairs", "count"},
    {"topology.routes", "count"},
    {"synth.encode_ms", "ms"},
    {"synth.vars", "count"},
    {"synth.clauses", "count"},
    {"synth.linear_constraints", "count"},
    {"solver.solve_ms", "ms"},
    {"solver.conflicts", "count/op"},
    {"solver.propagations", "count/op"},
    {"solver.probes", "count/op"},
    {"solver.capped_probes", "count/op"},
    {"analysis.check_ms", "ms"},
    {"analysis.check_table_ms", "ms"},
    {"delta.warm.ms", "ms", kDelta},
    {"delta.warm.count", "count/op", kDelta},
    {"delta.retract.ms", "ms", kDelta},
    {"delta.retract.count", "count/op", kDelta},
    {"delta.replay.ms", "ms", kDelta},
    {"delta.replay.count", "count/op", kDelta},
    {"delta.full.ms", "ms", kDelta},
    {"delta.full.count", "count/op", kDelta},
    {"delta.fallbacks", "count/op", kDelta},
    {"model.delta_apply_ms", "ms", "serve churn"},
    {"service.queue_ms_p50", "ms", kService},
    {"service.queue_ms_p99", "ms", kService},
    {"service.solve_ms_p50", "ms", kService},
    {"service.cache_hit_ratio", "ratio", kService},
    {"service.warm_hit_ratio", "ratio", kService},
    {"service.cache_partial_hits", "count/op", kService},
    {"service.retries", "count/op", kService},
    {"net.overhead_ms_p50", "ms", kService},
    {"trace.overhead_pct", "%"},
    {"trace.events", "count/op"},
    {"trace.layer_share_pct", "%", kLayerShare},
};

bool applies(const MetricSpec& m, const std::string& workload) {
  if (m.on == nullptr) return true;
  for (const std::string& w : cs::util::split_ws(m.on))
    if (w == workload) return true;
  return false;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Prints the metrics as a table and returns them as a JSON object. A
/// metric the workload should have set but did not makes the run
/// incorrect: a lost figure must not pass as a 0.
template <std::size_t N>
std::string report_metrics(const std::string& workload, Outcome& out,
                           const MetricSpec (&specs)[N]) {
  std::string s = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const MetricSpec& m = specs[i];
    const auto it = out.metrics.find(m.name);
    double v = 0;
    if (it != out.metrics.end()) {
      v = it->second;
    } else if (applies(m, workload)) {
      out.correct = false;
      std::printf("  MISSING metric %s\n", m.name);
    }
    std::printf("  %-26s %14.4f %s\n", m.name, v, m.unit);
    if (i) s += ", ";
    s += "\"" + std::string(m.name) + "\": {\"value\": " + json_number(v) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  return s + "}";
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      CS_REQUIRE(i + 1 < argc, "flag " + flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = next();
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(
          cs::util::parse_int(next(), "seed"));
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(
          cs::util::parse_int(next(), "seconds"));
      CS_REQUIRE(args.seconds >= 1, "--seconds must be >= 1");
    } else if (flag == "--trace") {
      args.trace = cs::util::parse_int(next(), "trace") != 0;
    } else if (flag == "--server") {
      args.server = next();
    } else if (flag == "--work-dir") {
      args.work_dir = next();
    } else {
      throw cs::util::SpecError("unknown flag '" + flag + "'");
    }
  }
  if (args.work_dir.empty()) args.work_dir = ".";
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Outcome out;
    if (args.workload == "scale") {
      out = run_scale(args);
    } else if (args.workload == "sweep") {
      out = run_sweep(args);
    } else if (args.workload == "serve") {
      out = run_serve(args);
    } else if (args.workload == "churn") {
      out = run_churn(args);
    } else {
      throw cs::util::SpecError("unknown workload '" + args.workload +
                                "' (scale, sweep, serve, churn)");
    }

    std::printf("csbench workload=%s seed=%llu seconds=%g trace=%d "
                "backend=minipb build=%s nproc=%ld\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, CSBENCH_BUILD_TYPE,
                sysconf(_SC_NPROCESSORS_ONLN));
    for (const std::string& line : out.notes)
      std::printf("  %s\n", line.c_str());
    const std::string metrics =
        args.trace ? report_metrics(args.workload, out, kPerLayer)
                   : report_metrics(args.workload, out, kEndToEnd);
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": %s}\n",
                out.correct ? "true" : "false",
                static_cast<long long>(out.attempted),
                static_cast<long long>(out.failed), metrics.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "csbench: error: %s\n", e.what());
    return 2;
  }
}
