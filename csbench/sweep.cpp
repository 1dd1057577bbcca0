// sweep — a Fig. 3(a)-style max-isolation grid on the paper example.
//
// Usability floor {0, 2, ..., 10} x budget {$10K, $20K} on the paper's
// example network with one service between every host pair, solved by
// synth::SweepEngine on one worker with cold (fresh-synthesizer) points
// and a deterministic conflict cap. One operation is one grid point; one
// round is one whole grid. The solver does nearly all the work.
#include <algorithm>
#include <string>
#include <vector>

#include "analysis/checker.h"
#include "csbench.h"
#include "obs/trace.h"
#include "smt/ir.h"
#include "synth/sweep.h"
#include "topology/routes.h"

namespace csbench {
namespace {

using namespace cs;

constexpr std::int64_t kConflictLimit = 5000;

/// The grid, floor-major. It does not depend on the seed: every run
/// repeats the same deterministic solver work (a seeded point order would
/// solve the same instances but move the allocator's high-water mark).
synth::SweepRequest grid() {
  std::vector<util::Fixed> floors;
  for (int u = 0; u <= 10; u += 2) floors.push_back(util::Fixed::from_int(u));
  synth::SweepRequest request = synth::SweepRequest::max_isolation_grid(
      floors, {util::Fixed::from_int(10), util::Fixed::from_int(20)});
  request.synthesis = minipb_options(kConflictLimit);
  request.jobs = 1;
  return request;
}

/// Whether point `q` is at least as constrained as `p`: a floor no lower
/// and a budget no higher, so its optimum cannot exceed p's.
bool tighter(const synth::SweepPoint& q, const synth::SweepPoint& p) {
  return q.usability >= p.usability && q.budget <= p.budget;
}

/// The witness of a feasible point must pass check_design with the
/// point's thresholds: isolation >= bound, usability >= floor, cost <=
/// budget.
std::string check_witness(const model::ProblemSpec& spec,
                          const synth::SweepPointResult& r) {
  if (r.skipped) return "point skipped";
  if (!r.search.feasible) return {};
  if (!r.search.design) return "feasible point without a witness";
  model::ProblemSpec at = spec;
  at.sliders = model::Sliders{r.search.bound, r.point.usability,
                              r.point.budget};
  const analysis::CheckReport report =
      analysis::check_design(at, *r.search.design);
  return report.ok() ? std::string() : "witness: " + report.issues.front();
}

/// Monotonicity across one grid: an exact bound at (u, b) is at least the
/// certified bound of every tighter point, and an exactly infeasible
/// point has only infeasible tighter points.
std::string check_monotone(const std::vector<synth::SweepPointResult>& pts,
                           std::size_t i) {
  const synth::SweepPointResult& p = pts[i];
  if (!p.search.exact) return {};
  for (const synth::SweepPointResult& q : pts) {
    if (&q == &p || !tighter(q.point, p.point) || !q.search.feasible)
      continue;
    if (!p.search.feasible)
      return "infeasible point has a feasible tighter point";
    if (p.search.bound < q.search.bound)
      return "exact bound " + p.search.bound.to_string() +
             " below a tighter point's " + q.search.bound.to_string();
  }
  return {};
}

std::string describe(const synth::SweepPoint& p) {
  return "(floor " + p.usability.to_string() + ", budget " +
         p.budget.to_string() + ")";
}

void timed_rounds(const synth::SweepEngine& engine,
                  const synth::SweepRequest& request, double seconds,
                  std::vector<synth::SweepResult>& rounds, Timings& t) {
  const Clock::time_point start = Clock::now();
  do {
    rounds.push_back(engine.run(request));
    const synth::SweepResult& r = rounds.back();
    for (const synth::SweepPointResult& p : r.points)
      t.op_ms.push_back(p.wall_seconds * 1000);
    t.seconds += r.wall_seconds;
  } while (since(start) < seconds);
}

void layer_split(const model::ProblemSpec& spec,
                 const std::vector<synth::SweepResult>& rounds,
                 double op_p50_ms, Outcome& out) {
  // Routes and encode of the (small) grid spec, repeated for a stable
  // median; every grid point pays them once on the cold path.
  std::vector<double> routes_ms, encode_ms;
  for (int rep = 0; rep < 50; ++rep) {
    const RoutesEncode layers = time_routes_encode(spec);
    routes_ms.push_back(layers.routes_ms);
    encode_ms.push_back(layers.encode_ms);
    if (rep == 0) layers.report_counts(out);
  }
  out.set("topology.routes_ms", median(routes_ms));
  out.set("synth.encode_ms", median(encode_ms));

  // Solver effort per grid point, over one grid (deterministic under the
  // conflict cap). A capped probe ends its point's bound search, so the
  // capped probes are the points that are not exact.
  const synth::SweepResult& grid = rounds[1];
  const auto points = static_cast<double>(grid.points.size());
  std::vector<double> solve_ms;
  int capped = 0;
  for (const synth::SweepPointResult& p : grid.points) {
    solve_ms.push_back(p.search.solve_seconds * 1000);
    capped += p.search.exact ? 0 : 1;
  }
  out.set("solver.solve_ms", median(solve_ms));
  out.set("solver.conflicts",
          static_cast<double>(grid.total_solver.conflicts) / points);
  out.set("solver.propagations",
          static_cast<double>(grid.total_solver.propagations) / points);
  out.set("solver.probes", grid.total_probes / points);
  out.set("solver.capped_probes", capped / points);
  if (op_p50_ms > 0)
    out.set("trace.layer_share_pct",
            100 * median(solve_ms) / op_p50_ms);

  // The checker on every witness of one grid, with and without a table.
  std::vector<double> check_ms, table_ms;
  topology::RouteTable table(spec.network, spec.route_options);
  for (const synth::SweepPointResult& p : grid.points) {
    if (!p.search.design) continue;
    model::ProblemSpec at = spec;
    at.sliders = model::Sliders{p.search.bound, p.point.usability,
                                p.point.budget};
    Clock::time_point t = Clock::now();
    {
      obs::Span span("csbench", "analysis/check");
      analysis::check_design(at, *p.search.design);
    }
    check_ms.push_back(since(t) * 1000);
    t = Clock::now();
    {
      obs::Span span("csbench", "analysis/check-table");
      analysis::check_design(at, *p.search.design, table);
    }
    table_ms.push_back(since(t) * 1000);
  }
  out.set("analysis.check_ms", median(check_ms));
  out.set("analysis.check_table_ms", median(table_ms));
}

}  // namespace

Outcome run_sweep(const Args& args) {
  Outcome out;
  const model::ProblemSpec spec = paper_all_pairs_spec();
  const synth::SweepRequest request = grid();
  const synth::SweepEngine engine(spec);
  out.note("sweep: paper example all-pairs, " +
           std::to_string(request.points.size()) +
           "-point max-isolation grid, conflict cap " +
           std::to_string(kConflictLimit));

  // Set-up ends with the grid's first point, untimed (first-touch
  // allocation); it is checked with the whole grids. rounds[1] is the
  // first whole grid.
  synth::SweepRequest first_point = request;
  first_point.points.resize(1);
  std::vector<synth::SweepResult> rounds{engine.run(first_point)};
  out.set("setup_s", since(process_start()));

  if (!args.trace) {
    Timings timings;
    timed_rounds(engine, request, args.seconds, rounds, timings);
    timings.report(out, false);
  } else {
    Timings off, on;
    timed_rounds(engine, request, args.seconds / 3, rounds, off);
    trace_start();
    timed_rounds(engine, request, args.seconds / 3, rounds, on);
    report_trace_events(on.op_ms.size(), out);
    report_trace_overhead(off.op_ms, on.op_ms, out);
    layer_split(spec, rounds, median(off.op_ms), out);
    trace_stop(args, out);
  }
  out.set("peak_rss_mb", self_peak_rss_mb());

  const synth::SweepResult& grid = rounds[1];
  int exact = 0;
  for (const synth::SweepPointResult& p : grid.points)
    exact += p.search.exact ? 1 : 0;
  out.note("sweep grid: " + std::to_string(exact) + " of " +
           std::to_string(grid.points.size()) + " points exact, " +
           std::to_string(grid.total_probes) + " probes, " +
           std::to_string(grid.total_solver.conflicts) + " conflicts");

  // Checks: witnesses, monotonicity within each grid, and the same
  // results in every grid (effort caps are deterministic).
  const std::vector<synth::SweepPointResult>& first = grid.points;
  for (const synth::SweepResult& round : rounds) {
    for (std::size_t i = 0; i < round.points.size(); ++i) {
      const synth::SweepPointResult& p = round.points[i];
      ++out.attempted;
      std::string why = check_witness(spec, p);
      if (why.empty()) why = check_monotone(round.points, i);
      if (why.empty() &&
          (p.search.feasible != first[i].search.feasible ||
           p.search.exact != first[i].search.exact ||
           p.search.bound != first[i].search.bound))
        why = "result differs from the first grid's";
      if (!why.empty()) {
        ++out.failed;
        out.fail_check("sweep point " + describe(p.point) + ": " + why);
      }
    }
  }

  // Self-test on corrupted copies of the first grid.
  std::vector<synth::SweepPointResult> pts = first;
  bool witness_rejected = false;
  for (synth::SweepPointResult& p : pts) {
    if (!p.search.design || p.search.design->device_count() == 0) continue;
    synth::SweepPointResult broken = p;
    witness_rejected = drop_one_device(*broken.search.design) &&
                       !check_witness(spec, broken).empty();
    break;
  }
  out.self_test("a witness with one placed device removed", witness_rejected);

  bool lowered = false, flipped = false;
  for (std::size_t i = 0; i < pts.size() && !(lowered && flipped); ++i) {
    if (!pts[i].search.exact) continue;
    for (const synth::SweepPointResult& q : pts) {
      if (&q == &pts[i] || !tighter(q.point, pts[i].point) ||
          !q.search.feasible)
        continue;
      std::vector<synth::SweepPointResult> bad = pts;
      bad[i].search.bound = q.search.bound - util::Fixed::from_raw(50);
      lowered = lowered || !check_monotone(bad, i).empty();
      bad = pts;
      bad[i].search.feasible = false;
      flipped = flipped || !check_monotone(bad, i).empty();
      break;
    }
  }
  out.self_test("an exact bound lowered below a tighter point's", lowered);
  out.self_test("a flipped verdict (feasible -> infeasible)", flipped);
  return out;
}

}  // namespace csbench
