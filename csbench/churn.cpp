// churn — a seeded cs-delta-v1 stream through Synthesizer::apply_delta.
//
// A 300-host fat-tree locality spec is synthesized once during set-up;
// then every operation applies one single-op delta to the live
// synthesizer. The stream runs in cycles of 20 steps with a fixed class
// make-up (6 retunes, 3 UIC adds, 3 UIC removes, 2 flow adds, 2 flow
// removes, 2 host arrivals, 2 host departures) in a seeded order, so
// every run drives the warm, retract, replay and full tiers in the same
// proportions. Each cycle removes what it adds, so the spec does not grow
// over a run and a cycle costs the same however many a run fits in. Retunes stay in a region where every tier decides in few
// conflicts. Link failures are left out: they break the fat-tree's route
// symmetry, and SAT designs then fail check_design on some seeds (the
// route-direction fault of RouteTable::routes, see CHANGES.md).
#include <algorithm>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/checker.h"
#include "common/workloads.h"
#include "csbench.h"
#include "model/delta.h"
#include "obs/trace.h"
#include "smt/ir.h"
#include "topology/routes.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace csbench {
namespace {

using namespace cs;

constexpr int kHosts = 300;
constexpr std::int64_t kConflictLimit = 20000;
/// One cycle's make-up; every cycle runs these 20 ops in a seeded order.
constexpr const char* kCycle[] = {
    "retune",   "retune",      "retune",      "retune",    "retune",
    "retune",   "add-uic",     "add-uic",     "add-uic",   "remove-uic",
    "remove-uic", "remove-uic", "add-flow",   "add-flow",  "remove-flow",
    "remove-flow", "add-host",  "add-host",   "remove-host", "remove-host"};
constexpr std::size_t kCycleSteps = std::size(kCycle);

/// Deterministic stream generator. Removals only target objects the
/// stream itself added, so every delta is valid against the evolving spec
/// by construction.
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : rng_(seed) {}

  /// The next delta against `cur`; `cls` names its op.
  model::SpecDelta next(const model::ProblemSpec& cur, std::string* cls) {
    if (pos_ % kCycleSteps == 0) shuffle_cycle();
    *cls = order_[pos_++ % kCycleSteps];
    model::DeltaOp op;
    if (*cls == "retune") {
      op = retune();
    } else if (*cls == "add-uic") {
      op = add_uic(cur);
    } else if (*cls == "remove-uic") {
      op.kind = model::DeltaOpKind::kRemoveUic;
      op.uic = take(uics_);
    } else if (*cls == "add-flow") {
      op = add_flow(cur);
    } else if (*cls == "remove-flow") {
      op.kind = model::DeltaOpKind::kRemoveFlow;
      std::tie(op.a, op.b) = take(flows_);
      op.service = "WEB";
    } else if (*cls == "add-host") {
      op = add_host(cur);
    } else {
      op.kind = model::DeltaOpKind::kRemoveHost;
      op.a = take(hosts_);
    }
    return model::SpecDelta{{std::move(op)}};
  }

 private:
  /// A seeded order of kCycle in which every removal comes after an
  /// addition that gives it something to remove.
  void shuffle_cycle() {
    order_.assign(std::begin(kCycle), std::end(kCycle));
    for (std::size_t i = order_.size(); i > 1; --i)
      std::swap(order_[i - 1], order_[static_cast<std::size_t>(pick(i))]);
    std::map<std::string, std::size_t> pool{{"uic", uics_.size()},
                                            {"flow", flows_.size()},
                                            {"host", hosts_.size()}};
    for (std::size_t i = 0; i < order_.size(); ++i) {
      const std::string op = order_[i];
      const std::string what = op.substr(op.find('-') + 1);
      if (op.rfind("add-", 0) == 0) {
        ++pool[what];
      } else if (op.rfind("remove-", 0) == 0) {
        if (pool[what] == 0) {
          std::size_t j = i + 1;
          while (order_[j] != "add-" + what) ++j;
          std::swap(order_[i], order_[j]);
          ++pool[what];
        } else {
          --pool[what];
        }
      }
    }
  }

  std::int64_t pick(std::size_t n) {
    return rng_.uniform(0, static_cast<std::int64_t>(n) - 1);
  }

  /// Removes and returns a seeded element of `pool` (never empty here).
  template <typename T>
  T take(std::vector<T>& pool) {
    const auto at = static_cast<std::size_t>(pick(pool.size()));
    T out = std::move(pool[at]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(at));
    return out;
  }

  /// Base hosts only: their names are stable across the stream.
  static const std::string& host_name(const model::ProblemSpec& cur, int i) {
    const auto& hs = cur.network.hosts();
    return cur.network
        .node(hs[static_cast<std::size_t>(((i % kHosts) + kHosts) % kHosts)])
        .name;
  }

  model::DeltaOp retune() {
    model::DeltaOp op;
    op.kind = model::DeltaOpKind::kRetune;
    op.isolation = util::Fixed::from_raw(4000 + 100 * rng_.uniform(0, 35));
    if (rng_.chance(0.5))
      op.usability = util::Fixed::from_raw(3000 + 100 * rng_.uniform(0, 25));
    if (rng_.chance(0.5))
      op.budget = util::Fixed::from_int(rng_.uniform(12, 20) * kHosts);
    return op;
  }

  /// Strengthens a base WEB flow (i -> i+1) with a non-denying pattern.
  model::DeltaOp add_uic(const model::ProblemSpec& cur) {
    static constexpr const char* kPatterns[] = {
        "trusted-comm", "payload-inspection", "proxy"};
    for (;;) {
      const int i = static_cast<int>(rng_.uniform(0, kHosts - 1));
      std::vector<std::string> uic{"forbid-flow", host_name(cur, i),
                                   host_name(cur, i + 1), "WEB",
                                   kPatterns[rng_.uniform(0, 2)]};
      if (std::find(uics_.begin(), uics_.end(), uic) != uics_.end()) continue;
      model::DeltaOp op;
      op.kind = model::DeltaOpKind::kAddUic;
      op.uic = uic;
      uics_.push_back(std::move(uic));
      return op;
    }
  }

  /// (i, i+3, WEB) is not in the locality workload (WEB spans 1, DB 2,
  /// SSH n/2), so only this stream's own additions can collide.
  model::DeltaOp add_flow(const model::ProblemSpec& cur) {
    for (;;) {
      const int i = static_cast<int>(rng_.uniform(0, kHosts - 1));
      std::pair<std::string, std::string> pair{host_name(cur, i),
                                               host_name(cur, i + 3)};
      if (std::find(flows_.begin(), flows_.end(), pair) != flows_.end())
        continue;
      model::DeltaOp op;
      op.kind = model::DeltaOpKind::kAddFlow;
      op.a = pair.first;
      op.b = pair.second;
      op.service = "WEB";
      op.connectivity_required = rng_.chance(0.3);
      flows_.push_back(std::move(pair));
      return op;
    }
  }

  /// A new leaf host on a seeded router.
  model::DeltaOp add_host(const model::ProblemSpec& cur) {
    model::DeltaOp op;
    op.kind = model::DeltaOpKind::kAddHost;
    op.a = "churn-h" + std::to_string(next_host_++);
    const auto& routers = cur.network.routers();
    op.b = cur.network.node(routers[static_cast<std::size_t>(
                                pick(routers.size()))]).name;
    hosts_.push_back(op.a);
    return op;
  }

  util::Rng rng_;
  std::size_t pos_ = 0;
  std::vector<std::string> order_;
  int next_host_ = 0;
  std::vector<std::vector<std::string>> uics_;
  std::vector<std::pair<std::string, std::string>> flows_;
  std::vector<std::string> hosts_;
};

struct Step {
  model::SpecDelta delta;
  std::string cls;
  std::string path;
  std::string fallback;
  smt::CheckResult status = smt::CheckResult::kUnknown;
  std::optional<synth::SecurityDesign> design;
  double ms = 0;
  double solve_ms = 0;
  std::int64_t conflicts = 0;
  std::int64_t propagations = 0;
  // Filled by the checks.
  std::shared_ptr<const model::ProblemSpec> post;
  smt::CheckResult cold_status = smt::CheckResult::kUnknown;
  std::optional<synth::SecurityDesign> cold_design;
};

bool rebuilds(const Step& s) { return s.path == "replay" || s.path == "full"; }

/// Applies whole cycles until `seconds` have passed (at least one).
void timed_cycles(synth::Synthesizer& inc, Stream& stream, double seconds,
                  std::vector<Step>& steps, Timings& t) {
  const Clock::time_point start = Clock::now();
  do {
    double cycle_ms = 0;
    for (std::size_t k = 0; k < kCycleSteps; ++k) {
      Step s;
      s.delta = stream.next(inc.spec(), &s.cls);
      const smt::SolverStats before = inc.solver_statistics();
      const Clock::time_point t0 = Clock::now();
      synth::DeltaApplyReport report = inc.apply_delta(s.delta);
      s.ms = since(t0) * 1000;
      s.path = report.path;
      s.fallback = report.fallback_reason;
      s.status = report.result.status;
      s.design = std::move(report.result.design);
      s.solve_ms = report.result.solve_seconds * 1000;
      // A rebuilt synthesizer's counters start from zero.
      const smt::SolverStats after = inc.solver_statistics();
      const bool fresh = rebuilds(s) || !s.fallback.empty();
      s.conflicts = after.conflicts - (fresh ? 0 : before.conflicts);
      s.propagations = after.propagations - (fresh ? 0 : before.propagations);
      cycle_ms += s.ms;
      t.op_ms.push_back(s.ms);
      steps.push_back(std::move(s));
    }
    t.seconds += cycle_ms / 1000;
  } while (since(start) < seconds);
}

/// The step check against the cold reference: same verdict; a SAT design
/// passes check_design on the post-delta spec; replay and full designs
/// equal the cold design.
std::string check_step(const Step& s) {
  if (s.status != s.cold_status)
    return "verdict differs from a fresh synthesizer's";
  if (s.status == smt::CheckResult::kUnknown) return "capped on both sides";
  if (s.status == smt::CheckResult::kSat) {
    if (!s.design) return "SAT without a design";
    const analysis::CheckReport report =
        analysis::check_design(*s.post, *s.design);
    if (!report.ok()) return "design check: " + report.issues.front();
    if (rebuilds(s) && s.design != s.cold_design)
      return s.path + " design differs from the cold design";
  }
  return {};
}

}  // namespace

Outcome run_churn(const Args& args) {
  Outcome out;
  synth::SynthesisOptions options = minipb_options(kConflictLimit);
  // Policy-only deltas take the retract tier only with retractable
  // sections; the cold reference uses the same options (same formula).
  options.retractable_sections = true;
  const auto spec0 = std::make_shared<const model::ProblemSpec>(
      bench::make_locality_spec(topology::TopologyKind::kFatTree, kHosts,
                                args.seed));
  synth::Synthesizer inc(spec0, options);
  const smt::CheckResult initial = inc.synthesize().status;
  Stream stream(args.seed);
  out.note("churn: fat-tree locality spec, " + std::to_string(kHosts) +
           " hosts, cycles of " + std::to_string(kCycleSteps) + " deltas");
  // Set-up ends with one untimed cycle (first-touch allocation); its
  // steps are checked with the others.
  std::vector<Step> steps;
  Timings timings;
  timed_cycles(inc, stream, 0, steps, timings);
  timings = Timings{};
  out.set("setup_s", since(process_start()));

  if (!args.trace) {
    timed_cycles(inc, stream, args.seconds, steps, timings);
    timings.report(out, false);
  } else {
    Timings on;
    timed_cycles(inc, stream, args.seconds / 3, steps, timings);
    trace_start();
    timed_cycles(inc, stream, args.seconds / 3, steps, on);
    report_trace_events(on.op_ms.size(), out);
    report_trace_overhead(timings.op_ms, on.op_ms, out);
    obs::session().disable();  // the checks below are not traced
  }
  out.set("peak_rss_mb", self_peak_rss_mb());

  // Checks. The post-delta specs are recomputed here from the deltas with
  // model::apply_delta, apart from the synthesizer's own chain; then each
  // step is compared with a fresh Synthesizer on its post-delta spec.
  std::vector<double> apply_ms;
  std::shared_ptr<const model::ProblemSpec> cur = spec0;
  for (Step& s : steps) {
    const Clock::time_point t = Clock::now();
    cur = std::make_shared<const model::ProblemSpec>(
        model::apply_delta(*cur, s.delta));
    apply_ms.push_back(since(t) * 1000);
    s.post = cur;
  }
  std::vector<std::string> why(steps.size());
  std::vector<double> check_ms(steps.size(), -1);
  {
    util::ThreadPool pool(std::min<unsigned>(4, util::ThreadPool::hardware_jobs()));
    std::vector<std::future<void>> done;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      done.push_back(pool.submit([&, i] {
        Step& s = steps[i];
        synth::Synthesizer cold(*s.post, options);
        synth::SynthesisResult r = cold.synthesize();
        s.cold_status = r.status;
        if (rebuilds(s)) s.cold_design = std::move(r.design);
        const Clock::time_point t = Clock::now();
        why[i] = check_step(s);
        if (s.status == smt::CheckResult::kSat) check_ms[i] = since(t) * 1000;
      }));
    }
    for (auto& f : done) f.get();
  }
  out.attempted = static_cast<std::int64_t>(steps.size());
  if (initial != smt::CheckResult::kSat) {
    out.correct = false;
    out.note("CHECK FAILED: the pre-churn spec is not SAT");
  }
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (why[i].empty()) continue;
    ++out.failed;
    out.fail_check("churn step " + std::to_string(i) + " (" + steps[i].cls +
                   ", " + steps[i].path + ", " +
                   model::render_delta(steps[i].delta) + "): " + why[i]);
  }

  // Self-test on corrupted copies of checked steps.
  const auto find = [&](auto pred) -> const Step* {
    for (const Step& s : steps)
      if (pred(s)) return &s;
    return nullptr;
  };
  // Steps whose design places at least one device, so one can be dropped.
  const Step* sat = find([](const Step& s) {
    return s.design && s.design->device_count() > 0 && !rebuilds(s);
  });
  const Step* rebuilt = find([](const Step& s) {
    return s.design && s.design->device_count() > 0 && rebuilds(s);
  });
  bool flipped = false, broken = false, differs = false;
  if (sat != nullptr) {
    Step s = *sat;
    s.status = smt::CheckResult::kUnsat;
    flipped = !check_step(s).empty();
    s = *sat;
    broken = drop_one_device(*s.design) && !check_step(s).empty();
  }
  if (rebuilt != nullptr) {
    // A different but still valid-looking design: compare, do not check.
    Step s = *rebuilt;
    s.cold_design = s.design;
    differs = drop_one_device(*s.cold_design) && !check_step(s).empty();
  }
  out.self_test("a flipped verdict", flipped);
  out.self_test("a design with one placed device removed", broken);
  out.self_test("a replay/full design unlike the cold design", differs);

  if (args.trace) {
    // Counts are per step, so they do not grow with the steps a run fits
    // in; a tier's count is the share of steps that took it.
    const auto n = static_cast<double>(steps.size());
    for (const char* tier : {"warm", "retract", "replay", "full"}) {
      std::vector<double> ms;
      for (const Step& s : steps)
        if (s.path == tier) ms.push_back(s.ms);
      out.set(std::string("delta.") + tier + ".ms", median(ms));
      out.set(std::string("delta.") + tier + ".count",
              static_cast<double>(ms.size()) / n);
    }
    std::vector<double> solve_ms, checks;
    double conflicts = 0, propagations = 0, fallbacks = 0, capped = 0;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const Step& s = steps[i];
      solve_ms.push_back(s.solve_ms);
      conflicts += static_cast<double>(s.conflicts);
      propagations += static_cast<double>(s.propagations);
      fallbacks += s.fallback.empty() ? 0 : 1;
      capped += s.fallback == "capped-probe" ? 1 : 0;
      if (check_ms[i] >= 0) checks.push_back(check_ms[i]);
    }
    out.set("delta.fallbacks", fallbacks / n);
    out.set("model.delta_apply_ms", median(apply_ms));
    out.set("solver.solve_ms", median(solve_ms));
    out.set("solver.conflicts", conflicts / n);
    out.set("solver.propagations", propagations / n);
    // Every step is one probe of the live synthesizer.
    out.set("solver.probes", 1);
    out.set("solver.capped_probes", capped / n);
    out.set("analysis.check_ms", median(checks));

    // Routes, encode and the table-sharing check on the last SAT step's
    // post-delta spec.
    obs::session().enable();
    const Step* last = nullptr;
    for (const Step& s : steps)
      if (s.design) last = &s;
    if (last != nullptr) {
      const RoutesEncode layers =
          time_routes_encode(*last->post, options.retractable_sections);
      out.set("topology.routes_ms", layers.routes_ms);
      out.set("synth.encode_ms", layers.encode_ms);
      layers.report_counts(out);
      const Clock::time_point t = Clock::now();
      obs::Span span("csbench", "analysis/check-table");
      analysis::check_design(*last->post, *last->design, *layers.table);
      out.set("analysis.check_table_ms", since(t) * 1000);
    }
    trace_stop(args, out);
  }
  return out;
}

}  // namespace csbench
