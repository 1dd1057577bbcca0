// Shared pieces of the ConfigSynth end-to-end benchmark program.
//
// One process runs one workload (scale, sweep, serve or churn) for a fixed
// measuring time and reports one JSON object on its last stdout line:
// end-to-end metrics on untraced runs, per-layer metrics on traced runs.
// Every workload checks its outputs after the timed phase and then runs a
// self-test that feeds each check a corrupted output, which it must reject.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "synth/design.h"
#include "synth/encoder.h"
#include "synth/synthesizer.h"
#include "topology/routes.h"

namespace csbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t`.
double since(Clock::time_point t);

/// Process start, taken during static initialization of csbench.
Clock::time_point process_start();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Path of the configsynth_server binary (serve workload).
  std::string server;
  /// Directory for run artifacts (server logs, trace files).
  std::string work_dir;
};

/// What one run reports. main.cpp prints 0 for a metric of a layer the
/// workload does not pass through, and fails the run when any other
/// metric was not set.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// False when a check could not run or the self-test let a corrupted
  /// output through: the run's verdicts then certify nothing.
  bool correct = true;
  std::map<std::string, double> metrics;
  /// Human-readable lines printed before the JSON line.
  std::vector<std::string> notes;
  int failures_logged = 0;

  void set(const std::string& name, double value) { metrics[name] = value; }
  void note(const std::string& line) { notes.push_back(line); }
  /// Logs a check failure (the caller counts it in `failed`); only the
  /// first few are kept.
  void fail_check(const std::string& what);
  /// Self-test bookkeeping: `rejected` must be true for every corruption.
  void self_test(const std::string& what, bool rejected);
};

/// Synthesis options every workload uses: MiniPB, library defaults
/// otherwise, and a deterministic per-check effort cap.
cs::synth::SynthesisOptions minipb_options(std::int64_t conflict_limit);

// --- statistics ------------------------------------------------------------

/// Linear-interpolation quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Length of the windows op_p99_ms is taken over.
constexpr double kTailWindowS = 1.5;

/// Operation latencies of one timed phase.
struct Timings {
  std::vector<double> op_ms;
  /// Start of each operation, in seconds since the phase began; needed
  /// only with `tail`.
  std::vector<double> op_at_s;
  /// Time the phase's whole rounds took.
  double seconds = 0;

  /// Fills ops_per_s (operations over `seconds`) and op_p50_ms (over all
  /// operations). With `tail`, op_p99_ms is the median over the phase's
  /// kTailWindowS windows of each window's 99th percentile, so a burst of
  /// host noise in a few windows does not set it; a stall that recurs at
  /// least once per window still does. Without `tail` a run has too few
  /// operations for a 99th percentile, and op_p99_ms repeats the median.
  void report(Outcome& out, bool tail) const;
};

/// Peak resident set of this process in MB.
double self_peak_rss_mb();

/// Switches the program's span recorder (obs) on, from a clean session.
void trace_start();
/// Reports trace.events: the spans recorded so far per operation of the
/// traced phase (`ops` operations).
void report_trace_events(std::size_t ops, Outcome& out);
/// Switches it off and writes the Chrome trace to
/// `<work_dir>/csbench-<workload>-<seed>.trace.json`.
void trace_stop(const Args& args, Outcome& out);

/// Fills trace.overhead_pct from the operation latencies of the untraced
/// and traced phases of a traced run.
void report_trace_overhead(const std::vector<double>& off_ms,
                           const std::vector<double>& on_ms, Outcome& out);

/// The route and encode layers timed from outside on one spec.
struct RoutesEncode {
  /// Route table filled for every flow (built over spec.network).
  std::unique_ptr<cs::topology::RouteTable> table;
  std::size_t routes = 0;
  double routes_ms = 0;
  double encode_ms = 0;
  cs::synth::EncodingStats stats;

  /// Decision variables of every kind in the encoding.
  std::size_t vars() const {
    return stats.flow_vars + stats.pair_device_vars + stats.placement_vars +
           stats.host_pattern_vars + stats.app_pattern_vars;
  }
  /// Records topology.route_pairs, topology.routes, synth.vars,
  /// synth.clauses and synth.linear_constraints.
  void report_counts(Outcome& out) const;
};

/// Fills a RouteTable for every flow of `spec`, then builds (and tears
/// down) an Encoding over it on a fresh MiniPB backend; each step is timed
/// and wrapped in a csbench span.
RoutesEncode time_routes_encode(const cs::model::ProblemSpec& spec,
                                bool retractable_sections = false);

/// The paper's example network (Fig. 2) with one service between every
/// ordered host pair and every tenth flow connectivity-required.
cs::model::ProblemSpec paper_all_pairs_spec();

/// Removes one placed device from `design` (the first in link order);
/// returns false when the design places no device.
bool drop_one_device(cs::synth::SecurityDesign& design);

// --- workloads -------------------------------------------------------------

Outcome run_scale(const Args& args);
Outcome run_sweep(const Args& args);
Outcome run_serve(const Args& args);
Outcome run_churn(const Args& args);

}  // namespace csbench
