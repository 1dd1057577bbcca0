#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "csbench.h"
#include "obs/trace.h"
#include "topology/generator.h"

namespace csbench {
namespace {

const Clock::time_point g_process_start = Clock::now();

}  // namespace

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

Clock::time_point process_start() { return g_process_start; }

void Outcome::fail_check(const std::string& what) {
  if (++failures_logged <= 8) note("CHECK FAILED: " + what);
}

void Outcome::self_test(const std::string& what, bool rejected) {
  note(std::string("self-test ") + (rejected ? "ok" : "FAILED") + ": " +
       what + (rejected ? " is rejected" : " was accepted"));
  if (!rejected) correct = false;
}

cs::synth::SynthesisOptions minipb_options(std::int64_t conflict_limit) {
  cs::synth::SynthesisOptions options;
  options.backend = cs::smt::BackendKind::kMiniPb;
  options.check_conflict_limit = conflict_limit;
  return options;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

void Timings::report(Outcome& out, bool tail) const {
  out.set("ops_per_s", static_cast<double>(op_ms.size()) / seconds);
  out.set("op_p50_ms", quantile(op_ms, 0.50));
  if (!tail) {
    out.set("op_p99_ms", quantile(op_ms, 0.50));
    return;
  }
  // Operations started after the last whole window (finishing the last
  // round) count in that window.
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kTailWindowS));
  std::vector<std::vector<double>> by_window(windows);
  for (std::size_t i = 0; i < op_ms.size(); ++i)
    by_window[std::min(windows - 1,
                       static_cast<std::size_t>(op_at_s[i] / kTailWindowS))]
        .push_back(op_ms[i]);
  std::vector<double> p99;
  for (const std::vector<double>& w : by_window)
    if (!w.empty()) p99.push_back(quantile(w, 0.99));
  out.set("op_p99_ms", median(p99));
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void trace_start() {
  cs::obs::session().clear();
  cs::obs::session().enable();
  cs::obs::session().set_thread_name("main");
}

void report_trace_events(std::size_t ops, Outcome& out) {
  if (ops > 0)
    out.set("trace.events",
            static_cast<double>(cs::obs::session().snapshot().size()) /
                static_cast<double>(ops));
}

void trace_stop(const Args& args, Outcome& out) {
  cs::obs::session().disable();
  const std::string path = args.work_dir + "/csbench-" + args.workload +
                           "-" + std::to_string(args.seed) + ".trace.json";
  cs::obs::session().write_json(path);
  out.note("trace written to " + path);
}

void report_trace_overhead(const std::vector<double>& off_ms,
                           const std::vector<double>& on_ms, Outcome& out) {
  const double off = median(off_ms);
  if (off > 0) out.set("trace.overhead_pct", 100.0 * (median(on_ms) / off - 1));
}

cs::model::ProblemSpec paper_all_pairs_spec() {
  using namespace cs;
  model::ProblemSpec spec;
  spec.network = topology::make_paper_example();
  const model::ServiceId svc = spec.services.add("svc");
  const auto& hosts = spec.network.hosts();
  for (const topology::NodeId i : hosts)
    for (const topology::NodeId j : hosts)
      if (i != j) spec.flows.add(model::Flow{i, j, svc});
  for (std::size_t f = 0; f < spec.flows.size(); f += 10)
    spec.connectivity.add(static_cast<model::FlowId>(f));
  spec.finalize();
  return spec;
}

void RoutesEncode::report_counts(Outcome& out) const {
  out.set("topology.route_pairs", static_cast<double>(table->pairs_computed()));
  out.set("topology.routes", static_cast<double>(routes));
  out.set("synth.vars", static_cast<double>(vars()));
  out.set("synth.clauses", static_cast<double>(stats.clauses));
  out.set("synth.linear_constraints",
          static_cast<double>(stats.linear_constraints));
}

RoutesEncode time_routes_encode(const cs::model::ProblemSpec& spec,
                                bool retractable_sections) {
  using namespace cs;
  RoutesEncode r;
  Clock::time_point t = Clock::now();
  {
    obs::Span span("csbench", "topology/routes");
    r.table = std::make_unique<topology::RouteTable>(spec.network,
                                                     spec.route_options);
    for (const model::Flow& f : spec.flows.all())
      r.routes += r.table->routes(f.src, f.dst).size();
  }
  r.routes_ms = since(t) * 1000;
  // The encode figure covers what a Synthesizer pays for this layer:
  // backend creation, the encoding, and their teardown.
  t = Clock::now();
  {
    obs::Span span("csbench", "synth/encode");
    const auto backend = smt::make_backend(smt::BackendKind::kMiniPb);
    const synth::Encoding encoding(spec, *r.table, *backend,
                                   retractable_sections);
    r.stats = encoding.stats();
  }
  r.encode_ms = since(t) * 1000;
  return r;
}

bool drop_one_device(cs::synth::SecurityDesign& design) {
  for (std::size_t link = 0; link < design.link_count(); ++link) {
    for (const cs::model::DeviceType device : cs::model::kAllDevices) {
      const auto id = static_cast<cs::topology::LinkId>(link);
      if (design.placed(id, device)) {
        design.set_placed(id, device, false);
        return true;
      }
    }
  }
  return false;
}

}  // namespace csbench
