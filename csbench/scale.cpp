// scale — spec to checked design, as `configsynth_cli synth` does it.
//
// One operation: a fresh synth::Synthesizer on a fat-tree locality spec
// (bench::make_locality_spec), synthesize(), then analysis::check_design
// on the full spec with thresholds. Routes, encode and the checker do
// nearly all the work; the solver a few percent.
#include <string>
#include <vector>

#include "analysis/checker.h"
#include "common/workloads.h"
#include "csbench.h"
#include "obs/trace.h"
#include "smt/ir.h"
#include "topology/routes.h"

namespace csbench {
namespace {

using namespace cs;

constexpr std::int64_t kConflictLimit = 20000;

/// 2000 hosts fill a k = 20 fat-tree exactly. The seed picks the flows'
/// connectivity requirements and thresholds (make_locality_spec).
constexpr int kHosts = 2000;

struct ScaleOp {
  smt::CheckResult status = smt::CheckResult::kUnknown;
  std::optional<synth::SecurityDesign> design;
  /// Issues check_design reported inside the operation.
  std::vector<std::string> issues;
};

ScaleOp run_op(const model::ProblemSpec& spec,
               const synth::SynthesisOptions& options) {
  ScaleOp op;
  synth::Synthesizer synthesizer(spec, options);
  synth::SynthesisResult result = synthesizer.synthesize();
  op.status = result.status;
  if (result.design) {
    op.issues = analysis::check_design(spec, *result.design).issues;
    op.design = std::move(result.design);
  }
  return op;
}

/// The operation-level check: SAT with a design its own check accepted.
std::string check_op(const ScaleOp& op) {
  if (op.status != smt::CheckResult::kSat) return "verdict is not SAT";
  if (!op.design) return "SAT without a design";
  if (!op.issues.empty()) return "design check: " + op.issues.front();
  return {};
}

/// Runs operations until `seconds` have passed (at least one).
void timed_ops(const model::ProblemSpec& spec,
               const synth::SynthesisOptions& options, double seconds,
               std::vector<ScaleOp>& ops, std::vector<double>& op_ms) {
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point t = Clock::now();
    ops.push_back(run_op(spec, options));
    op_ms.push_back(since(t) * 1000);
  } while (since(start) < seconds);
}

/// Times each layer's public entry point on its own until `seconds` have
/// passed, at least three times. Each repetition also runs one whole
/// operation with tracing off, so the layer sum and the operation it
/// should account for are measured under the same machine conditions.
void layer_split(const model::ProblemSpec& spec,
                 const synth::SynthesisOptions& options,
                 const synth::SecurityDesign& design, double seconds,
                 Outcome& out) {
  std::vector<double> routes_ms, encode_ms, solve_ms, check_ms, table_ms,
      op_ms;
  const Clock::time_point start = Clock::now();
  do {
    obs::session().disable();
    const Clock::time_point op_start = Clock::now();
    run_op(spec, options);
    op_ms.push_back(since(op_start) * 1000);
    obs::session().enable();

    RoutesEncode layers = time_routes_encode(spec);
    routes_ms.push_back(layers.routes_ms);
    encode_ms.push_back(layers.encode_ms);
    layers.report_counts(out);

    {
      synth::Synthesizer synthesizer(spec, options);
      const Clock::time_point t = Clock::now();
      obs::Span span("csbench", "solver/solve");
      const synth::SynthesisResult r = synthesizer.synthesize();
      solve_ms.push_back(since(t) * 1000);
      const smt::SolverStats s = synthesizer.solver_statistics();
      out.set("solver.conflicts", static_cast<double>(s.conflicts));
      out.set("solver.propagations", static_cast<double>(s.propagations));
      // One operation is one probe.
      out.set("solver.probes", 1);
      out.set("solver.capped_probes",
              r.status == smt::CheckResult::kUnknown ? 1 : 0);
    }

    Clock::time_point t = Clock::now();
    {
      obs::Span span("csbench", "analysis/check");
      analysis::check_design(spec, design);
    }
    check_ms.push_back(since(t) * 1000);
    t = Clock::now();
    {
      obs::Span span("csbench", "analysis/check-table");
      analysis::check_design(spec, design, *layers.table);
    }
    table_ms.push_back(since(t) * 1000);
    // An operation also frees its route table.
    t = Clock::now();
    layers.table.reset();
    routes_ms.back() += since(t) * 1000;
  } while (since(start) < seconds || op_ms.size() < 3);

  out.set("topology.routes_ms", median(routes_ms));
  out.set("synth.encode_ms", median(encode_ms));
  out.set("solver.solve_ms", median(solve_ms));
  out.set("analysis.check_ms", median(check_ms));
  out.set("analysis.check_table_ms", median(table_ms));
  const double layers = median(routes_ms) + median(encode_ms) +
                        median(solve_ms) + median(check_ms);
  out.set("trace.layer_share_pct", 100 * layers / median(op_ms));
}

}  // namespace

Outcome run_scale(const Args& args) {
  Outcome out;
  const model::ProblemSpec spec = bench::make_locality_spec(
      topology::TopologyKind::kFatTree, kHosts, args.seed);
  const synth::SynthesisOptions options = minipb_options(kConflictLimit);
  out.note("scale: fat-tree locality spec, " +
           std::to_string(spec.network.hosts().size()) + " hosts, " +
           std::to_string(spec.flows.size()) + " flows");

  // Set-up ends with one untimed operation, so the timed ones do not pay
  // for first-touch allocation.
  std::vector<ScaleOp> ops{run_op(spec, options)};
  out.set("setup_s", since(process_start()));

  if (!args.trace) {
    Timings timings;
    timed_ops(spec, options, args.seconds, ops, timings.op_ms);
    for (const double ms : timings.op_ms) timings.seconds += ms / 1000;
    timings.report(out, false);
  } else {
    std::vector<double> op_ms, on_ms;
    timed_ops(spec, options, args.seconds / 4, ops, op_ms);
    trace_start();
    timed_ops(spec, options, args.seconds / 4, ops, on_ms);
    report_trace_events(on_ms.size(), out);
    report_trace_overhead(op_ms, on_ms, out);
    if (ops.front().design)
      layer_split(spec, options, *ops.front().design, args.seconds / 2, out);
    trace_stop(args, out);
  }
  out.set("peak_rss_mb", self_peak_rss_mb());

  // Checks, apart from the timed path: every operation SAT with an
  // accepted design, every design equal to the first one, and that design
  // re-checked here on the full spec with thresholds.
  out.attempted = static_cast<std::int64_t>(ops.size());
  for (const ScaleOp& op : ops) {
    std::string why = check_op(op);
    if (why.empty() && op.design != ops.front().design)
      why = "design differs from the first operation's";
    if (!why.empty()) {
      ++out.failed;
      out.fail_check("scale op: " + why);
    }
  }
  const ScaleOp& first = ops.front();
  if (first.design) {
    const analysis::CheckReport report =
        analysis::check_design(spec, *first.design);
    if (!report.ok()) {
      out.failed = out.attempted;
      out.fail_check("scale design re-check: " + report.issues.front());
    }
    // Self-test: the checks must reject corrupted outputs.
    synth::SecurityDesign broken = *first.design;
    const bool dropped = drop_one_device(broken);
    out.self_test("a design with one placed device removed",
                  dropped && !analysis::check_design(spec, broken).ok());
  } else {
    out.correct = false;
  }
  ScaleOp flipped = first;
  flipped.status = smt::CheckResult::kUnsat;
  out.self_test("a flipped verdict", !check_op(flipped).empty());
  return out;
}

}  // namespace csbench
