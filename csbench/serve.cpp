// serve — closed-loop cs-req-v1 traffic against configsynth_server.
//
// A fresh `configsynth_server --listen 0 --backend minipb --jobs 2` runs
// for each run; this process drives two keep-alive connections from one
// thread, one request outstanding per connection. Requests are
// feasibility checks with `inline:` Table IV specs: five seeded
// single-service mesh specs of 12-30 hosts and the paper example. Each
// connection sends rounds of 20 requests:
//   14 duplicates — keys this connection already has answers for (its own
//      hot set, sent during set-up), served from the result cache;
//   3 fresh SAT-band and 1 fresh UNSAT-band threshold triples on a known
//      spec, served by the warm pool or a cold solve (UNSAT answers carry
//      a core and are cached negatively);
//   2 `delta:` requests — a retune followed by a flow removal against the
//      connection's anchor, which move the anchor and grow the cache.
// After the timed phase csbench scrapes /metrics, asks the server to
// drain (SIGTERM; nothing is in flight by then) and reaps it.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cmath>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/checker.h"
#include "common/workloads.h"
#include "csbench.h"
#include "model/delta.h"
#include "model/input_file.h"
#include "net/client.h"
#include "net/request_codec.h"
#include "smt/ir.h"
#include "topology/routes.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace csbench {
namespace {

using namespace cs;

constexpr std::int64_t kConflictLimit = 20000;
/// The server's documented retry for a capped probe (service config
/// retry_cap_factor): one cold re-solve at four times the cap.
constexpr std::int64_t kRetryConflictLimit = 4 * kConflictLimit;
constexpr int kWorkers = 2;
constexpr int kConnections = 2;
/// How far (in requests) one connection may run ahead of the other.
constexpr std::size_t kMaxLead = 64;
constexpr int kDuplicatesPerRound = 14;
constexpr int kSatPerRound = 3;
constexpr int kUnsatPerRound = 1;
/// A round's inline requests plus its two-request delta chain.
constexpr std::size_t kRoundRequests =
    kDuplicatesPerRound + kSatPerRound + kUnsatPerRound + 2;

// --- inputs ----------------------------------------------------------------

struct Shape {
  std::string name;
  /// The spec as the server parses it from the inline text.
  std::shared_ptr<const model::ProblemSpec> spec;
  /// "inline:<base64>" spec-ref of every request on this shape.
  std::string ref;
};

/// The served specs are the same on every seed: which meshes a seed drew
/// would otherwise move the solve-time tail by some 15% from seed to seed.
/// The seed picks thresholds, request order and delta chains.
std::vector<Shape> make_shapes() {
  std::vector<std::pair<std::string, model::ProblemSpec>> specs;
  for (const int hosts : {12, 14, 16, 18, 20})
    specs.emplace_back("mesh-" + std::to_string(hosts),
                       bench::make_eval_spec(hosts, std::max(4, hosts / 3),
                                             0.10, 1000 + hosts, 1));
  specs.emplace_back("paper", paper_all_pairs_spec());
  std::vector<Shape> shapes;
  for (auto& [name, spec] : specs) {
    const std::string text = model::serialize_input(spec);
    std::istringstream in(text);
    shapes.push_back(Shape{
        name, std::make_shared<const model::ProblemSpec>(model::parse_input(in)),
        "inline:" + net::RequestCodec::base64_encode(text)});
  }
  return shapes;
}

enum class Kind { kHot, kDuplicate, kSat, kUnsat, kRetune, kFlow };

/// One request and what came back.
struct Record {
  Kind kind = Kind::kSat;
  std::string id;
  /// Shape of an inline request; for a delta, the shape its chain starts
  /// from (the anchor the chain's first delta applies to).
  int shape = 0;
  std::string delta;  // cs-delta-v1 text of a delta request
  model::Sliders sliders;
  /// Duplicates: index (same connection) of the first send of the key.
  std::size_t first = 0;
  bool timed = false;
  Clock::time_point sent_at;
  double latency_ms = 0;
  bool answered = false;
  net::WireResponse response;
};

/// Threshold bands where every spec decides in few conflicts: generous
/// budgets with modest isolation are SAT; a near-zero budget with
/// isolation >= 2 is UNSAT at once.
model::Sliders sat_band(util::Rng& rng) {
  return {util::Fixed::from_raw(500 + 10 * rng.uniform(0, 100)),
          util::Fixed::from_raw(500 + 10 * rng.uniform(0, 150)),
          util::Fixed::from_raw(300000 + 10 * rng.uniform(0, 9000))};
}
model::Sliders unsat_band(util::Rng& rng) {
  return {util::Fixed::from_raw(2000 + 10 * rng.uniform(0, 200)),
          util::Fixed::from_raw(1000 + 10 * rng.uniform(0, 200)),
          util::Fixed::from_raw(10 * rng.uniform(0, 300))};
}

/// The seeded request stream of one connection.
class Plan {
 public:
  Plan(int conn, std::uint64_t seed, const std::vector<Shape>& shapes)
      : conn_(conn), rng_(seed * 7919 + static_cast<std::uint64_t>(conn)),
        shapes_(shapes) {
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      hot_.push_back(fresh(Kind::kHot, static_cast<int>(s), sat_band));
      hot_.push_back(fresh(Kind::kHot, static_cast<int>(s), unsat_band));
    }
  }

  /// The next request; `index` is its position in the connection's log.
  Record next(std::size_t index) {
    if (index < hot_.size()) {
      first_of_hot_.push_back(index);
      return hot_[index];
    }
    if (queue_.empty()) refill();
    Record r = queue_.front();
    queue_.erase(queue_.begin());
    if (r.kind == Kind::kDuplicate) {
      const std::size_t h = dup_++ % hot_.size();
      r = hot_[h];
      r.kind = Kind::kDuplicate;
      r.first = first_of_hot_[h];
    }
    r.id = "c" + std::to_string(conn_) + "-" + std::to_string(index);
    return r;
  }

  std::size_t setup_requests() const { return hot_.size(); }

 private:
  Record fresh(Kind kind, int shape, model::Sliders (*band)(util::Rng&)) {
    Record r;
    r.kind = kind;
    r.shape = shape;
    do {
      r.sliders = band(rng_);
    } while (!used_.insert(std::make_tuple(shape, r.sliders.isolation.raw(),
                                           r.sliders.usability.raw(),
                                           r.sliders.budget.raw()))
                  .second);
    r.id = "c" + std::to_string(conn_) + "-" + std::to_string(hot_.size());
    return r;
  }

  int any_shape() {
    return static_cast<int>(
        rng_.uniform(0, static_cast<std::int64_t>(shapes_.size()) - 1));
  }

  /// One round: the inline requests in a seeded order, with the delta
  /// chain after a random one of them (so its anchor is an inline spec).
  void refill() {
    std::vector<Record> inline_reqs;
    for (int i = 0; i < kDuplicatesPerRound; ++i)
      inline_reqs.emplace_back().kind = Kind::kDuplicate;
    for (int i = 0; i < kSatPerRound; ++i)
      inline_reqs.push_back(fresh(Kind::kSat, any_shape(), sat_band));
    for (int i = 0; i < kUnsatPerRound; ++i)
      inline_reqs.push_back(fresh(Kind::kUnsat, any_shape(), unsat_band));
    for (std::size_t i = inline_reqs.size(); i > 1; --i)
      std::swap(inline_reqs[i - 1],
                inline_reqs[static_cast<std::size_t>(
                    rng_.uniform(0, static_cast<std::int64_t>(i) - 1))]);
    const auto at = static_cast<std::size_t>(rng_.uniform(
        1, static_cast<std::int64_t>(inline_reqs.size())));
    // Duplicates are resolved to hot keys in next(); the anchor shape of
    // the chain is the shape of the request just before it.
    const std::size_t dups_before = static_cast<std::size_t>(std::count_if(
        inline_reqs.begin(), inline_reqs.begin() + static_cast<std::ptrdiff_t>(at),
        [](const Record& r) { return r.kind == Kind::kDuplicate; }));
    const Record& before = inline_reqs[at - 1];
    const int anchor =
        before.kind == Kind::kDuplicate
            ? hot_[(dup_ + dups_before - 1) % hot_.size()].shape
            : before.shape;
    std::vector<Record> chain = delta_chain(anchor);
    inline_reqs.insert(inline_reqs.begin() + static_cast<std::ptrdiff_t>(at),
                       chain.begin(), chain.end());
    queue_ = std::move(inline_reqs);
  }

  std::vector<Record> delta_chain(int anchor) {
    const model::ProblemSpec& spec = *shapes_[static_cast<std::size_t>(anchor)].spec;
    model::DeltaOp retune;
    retune.kind = model::DeltaOpKind::kRetune;
    const model::Sliders s = sat_band(rng_);
    retune.isolation = s.isolation;
    retune.usability = s.usability;
    retune.budget = s.budget;
    const model::Flow& f = spec.flows.flow(static_cast<model::FlowId>(
        rng_.uniform(0, static_cast<std::int64_t>(spec.flows.size()) - 1)));
    model::DeltaOp remove;
    remove.kind = model::DeltaOpKind::kRemoveFlow;
    remove.a = spec.network.node(f.src).name;
    remove.b = spec.network.node(f.dst).name;
    remove.service = spec.services.service(f.service).name;
    Record first;
    first.kind = Kind::kRetune;
    first.shape = anchor;
    first.delta = model::render_delta(model::SpecDelta{{retune}});
    first.sliders = sat_band(rng_);
    Record second;
    second.kind = Kind::kFlow;
    second.shape = anchor;
    second.delta = model::render_delta(model::SpecDelta{{remove}});
    second.sliders = sat_band(rng_);
    return {first, second};
  }

  int conn_;
  util::Rng rng_;
  const std::vector<Shape>& shapes_;
  std::vector<Record> hot_;
  std::vector<std::size_t> first_of_hot_;
  std::size_t dup_ = 0;
  std::vector<Record> queue_;
  std::set<std::tuple<int, std::int64_t, std::int64_t, std::int64_t>> used_;
};

std::string render(const Record& r, const std::vector<Shape>& shapes) {
  net::WireRequest req;
  req.id = r.id;
  req.point.objective = synth::SweepObjective::kFeasibility;
  req.point.isolation = r.sliders.isolation;
  req.point.usability = r.sliders.usability;
  req.point.budget = r.sliders.budget;
  if (!r.delta.empty()) {
    req.spec_kind = net::SpecRefKind::kDelta;
    req.spec = r.delta;
    return net::RequestCodec::render_request(req);
  }
  // Render the tail through the codec and splice in the cached base64
  // spec-ref, so the (large) inline text is encoded once per shape.
  req.spec_kind = net::SpecRefKind::kFile;
  req.spec = "x";
  const std::string line = net::RequestCodec::render_request(req);
  return shapes[static_cast<std::size_t>(r.shape)].ref + line.substr(line.find(' '));
}

// --- the server process ----------------------------------------------------

class ServerProcess {
 public:
  ServerProcess(const Args& args, const std::string& trace_path) {
    CS_REQUIRE(!args.server.empty() && ::access(args.server.c_str(), X_OK) == 0,
               "serve: configsynth_server not found (pass --server)");
    int fds[2];
    CS_ENSURE(::pipe(fds) == 0, "pipe failed");
    const std::string log = args.work_dir + "/csbench-serve-server.log";
    std::vector<std::string> argv{args.server,   "--listen",
                                  "0",           "--backend",
                                  "minipb",      "--jobs",
                                  std::to_string(kWorkers),
                                  "--conflict-limit",
                                  std::to_string(kConflictLimit),
                                  "--time-limit", "0"};
    if (!trace_path.empty()) {
      argv.push_back("--trace-out");
      argv.push_back(trace_path);
    }
    pid_ = ::fork();
    CS_ENSURE(pid_ >= 0, "fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], STDOUT_FILENO);
      const int err = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (err >= 0) ::dup2(err, STDERR_FILENO);
      ::close(fds[0]);
      std::vector<char*> cargv;
      for (std::string& a : argv) cargv.push_back(a.data());
      cargv.push_back(nullptr);
      ::execv(cargv[0], cargv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    // The server prints "listening on 127.0.0.1:<port> ..." once bound.
    std::string buf;
    const Clock::time_point start = Clock::now();
    while (port_ < 0) {
      CS_REQUIRE(since(start) < 30, "serve: server did not start listening");
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 1000) <= 0) continue;
      char chunk[512];
      const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
      CS_REQUIRE(n > 0, "serve: server exited during start-up (see " + log + ")");
      buf.append(chunk, static_cast<std::size_t>(n));
      const std::size_t at = buf.find("listening on 127.0.0.1:");
      if (at != std::string::npos && buf.find('\n', at) != std::string::npos)
        port_ = std::atoi(buf.c_str() + at + std::strlen("listening on 127.0.0.1:"));
    }
  }

  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }

  /// Asks the server to drain, reaps it and returns its peak RSS in MB;
  /// `clean` is false unless it exited with the drain status (130) within
  /// 30 s.
  double stop(bool* clean) {
    ::kill(pid_, SIGTERM);
    const Clock::time_point start = Clock::now();
    char chunk[4096];
    bool eof = false;
    while (!eof && since(start) < 30) {
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 1000) > 0) eof = ::read(out_fd_, chunk, sizeof chunk) <= 0;
    }
    if (!eof) ::kill(pid_, SIGKILL);
    int status = 0;
    rusage usage{};
    ::wait4(pid_, &status, 0, &usage);
    pid_ = -1;
    *clean = eof && WIFEXITED(status) && WEXITSTATUS(status) == 130;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = -1;
};

// --- /metrics --------------------------------------------------------------

struct Scrape {
  std::map<std::string, double> values;  // counters, _sum and _count
  std::map<std::string, std::vector<std::pair<double, double>>> buckets;

  double get(const std::string& name) const {
    const auto it = values.find("configsynth_" + name);
    return it == values.end() ? 0 : it->second;
  }

  /// Quantile from the cumulative buckets, linear inside the bucket.
  double quantile(const std::string& name, double q) const {
    const auto it = buckets.find("configsynth_" + name);
    if (it == buckets.end() || it->second.empty()) return 0;
    const double total = it->second.back().second;
    if (total <= 0) return 0;
    double lo = 0, below = 0;
    for (const auto& [le, cum] : it->second) {
      if (cum >= q * total) {
        if (!std::isfinite(le)) return lo;
        const double in = cum - below;
        return in > 0 ? lo + (le - lo) * (q * total - below) / in : le;
      }
      lo = le;
      below = cum;
    }
    return lo;
  }
};

Scrape scrape(int port) {
  net::BlockingClient client("127.0.0.1", port);
  client.send_raw("GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n");
  const std::string body = client.recv_all();
  Scrape s;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("configsynth_", 0) != 0) continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const double v = std::strtod(line.c_str() + space + 1, nullptr);
    const std::string key = line.substr(0, space);
    const std::size_t brace = key.find("_bucket{le=\"");
    if (brace != std::string::npos) {
      const std::string le = key.substr(brace + 12, key.size() - brace - 14);
      s.buckets[key.substr(0, brace)].emplace_back(
          le == "+Inf" ? HUGE_VAL : std::strtod(le.c_str(), nullptr), v);
    } else {
      s.values[key] = v;
    }
  }
  return s;
}

// --- the closed loop -------------------------------------------------------

struct Connection {
  net::BlockingClient client;
  Plan plan;
  std::vector<Record> log;
  bool waiting = false;
};

/// Drives both connections; a connection sends its next request as soon as
/// the previous response arrives, until `more(conn)` says stop. A
/// connection never runs more than kMaxLead requests ahead of another that
/// is still sending: while one waits on a slow solve, the other cannot
/// insert enough fresh keys to push the first one's hot keys out of the
/// server's LRU cache, so every duplicate is a hit whatever the timing.
template <typename More>
void drive(std::vector<std::unique_ptr<Connection>>& conns,
           const std::vector<Shape>& shapes, bool timed, More more) {
  const auto send = [&](Connection& c) {
    Record r = c.plan.next(c.log.size());
    r.timed = timed;
    const std::string line = render(r, shapes);
    r.sent_at = Clock::now();
    c.log.push_back(std::move(r));
    c.client.send_line(line);
    c.waiting = true;
  };
  const auto send_ready = [&] {
    std::size_t least = SIZE_MAX;
    for (auto& c : conns)
      if (c->waiting || more(*c)) least = std::min(least, c->log.size());
    for (auto& c : conns)
      if (!c->waiting && c->log.size() < least + kMaxLead && more(*c))
        send(*c);
  };
  send_ready();
  for (;;) {
    std::vector<pollfd> fds;
    std::vector<Connection*> who;
    for (auto& c : conns)
      if (c->waiting) {
        fds.push_back(pollfd{c->client.fd(), POLLIN, 0});
        who.push_back(c.get());
      }
    if (fds.empty()) return;
    // Busy-poll for the first millisecond, which covers cache hits, so the
    // client's wake-up latency stays out of theirs; then sleep, so a long
    // solve does not share the cores with a spinning client.
    const Clock::time_point wait_start = Clock::now();
    while (::poll(fds.data(), fds.size(), 0) == 0 && since(wait_start) < 1e-3) {
    }
    CS_REQUIRE(::poll(fds.data(), fds.size(), 60000) > 0,
               "serve: no response within 60 s");
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Connection& c = *who[i];
      const auto line = c.client.recv_line();
      CS_REQUIRE(line.has_value(), "serve: server closed a connection");
      Record& r = c.log.back();
      r.latency_ms = since(r.sent_at) * 1000;
      r.response = net::RequestCodec::parse_response(*line);
      r.answered = true;
      c.waiting = false;
    }
    send_ready();
  }
}

struct Phase {
  /// Each connection's request log, in send order.
  std::vector<std::vector<Record>> logs;
  bool extra_lines = false;  // a response nobody asked for
  double requests_total = 0;
  Scrape metrics;
  double peak_rss_mb = 0;
  bool clean_exit = false;
  double setup_end_s = 0;
  Timings timings;
  std::vector<double> overhead_ms;  // latency minus the server's ms=
};

Phase run_phase(const Args& args, const std::vector<Shape>& shapes,
                double seconds, const std::string& trace_path) {
  Phase phase;
  ServerProcess server(args, trace_path);
  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < kConnections; ++c)
    conns.push_back(std::unique_ptr<Connection>(new Connection{
        net::BlockingClient("127.0.0.1", server.port()),
        Plan(c, args.seed, shapes), {}, false}));

  // Set-up: each connection sends its hot keys once.
  drive(conns, shapes, false, [](const Connection& c) {
    return c.log.size() < c.plan.setup_requests();
  });
  phase.setup_end_s = since(process_start());

  // Each connection stops at the end of a whole round.
  const Clock::time_point t0 = Clock::now();
  drive(conns, shapes, true, [&](const Connection& c) {
    return since(t0) < seconds ||
           (c.log.size() - c.plan.setup_requests()) % kRoundRequests != 0;
  });
  const double wall = since(t0);

  for (auto& c : conns) {
    pollfd p{c->client.fd(), POLLIN, 0};
    if (::poll(&p, 1, 50) > 0) phase.extra_lines = true;
    phase.logs.push_back(std::move(c->log));
  }
  phase.metrics = scrape(server.port());
  phase.requests_total = phase.metrics.get("requests_total");
  conns.clear();
  phase.peak_rss_mb = server.stop(&phase.clean_exit);

  // Latencies, and throughput over the whole timed phase.
  for (const auto& log : phase.logs)
    for (const Record& r : log) {
      if (!r.timed || !r.answered) continue;
      phase.timings.op_ms.push_back(r.latency_ms);
      phase.timings.op_at_s.push_back(
          std::chrono::duration<double>(r.sent_at - t0).count());
      if (r.response.has_ms)
        phase.overhead_ms.push_back(r.latency_ms - r.response.total_ms);
    }
  phase.timings.seconds = wall;
  return phase;
}

// --- checks ----------------------------------------------------------------

net::WireStatus wire(smt::CheckResult r) {
  switch (r) {
    case smt::CheckResult::kSat:
      return net::WireStatus::kSat;
    case smt::CheckResult::kUnsat:
      return net::WireStatus::kUnsat;
    default:
      return net::WireStatus::kUnknown;
  }
}

/// A cold in-process solve: fresh Synthesizer, no socket, cache or warm
/// pool; a capped probe gets the server's one raised-cap retry.
smt::CheckResult cold_solve(const model::ProblemSpec& spec,
                            const model::Sliders& t,
                            const std::vector<synth::ThresholdKind>* only) {
  for (const std::int64_t cap : {kConflictLimit, kRetryConflictLimit}) {
    synth::Synthesizer synthesizer(spec, minipb_options(cap));
    smt::CheckResult status;
    if (only == nullptr) {
      status = synthesizer.synthesize(t).status;
    } else {
      const auto has = [&](synth::ThresholdKind k) {
        return std::find(only->begin(), only->end(), k) != only->end();
      };
      status = synthesizer
                   .synthesize_partial(
                       has(synth::ThresholdKind::kIsolation)
                           ? std::optional(t.isolation) : std::nullopt,
                       has(synth::ThresholdKind::kUsability)
                           ? std::optional(t.usability) : std::nullopt,
                       has(synth::ThresholdKind::kCost)
                           ? std::optional(t.budget) : std::nullopt)
                   .status;
    }
    if (status != smt::CheckResult::kUnknown) return status;
  }
  return smt::CheckResult::kUnknown;
}

/// One answered request of a distinct key against its cold verdict; an
/// UNSAT core must stay UNSAT when re-solved cold with only its own
/// thresholds.
std::string check_answer(const Record& r, const model::ProblemSpec& spec,
                         smt::CheckResult cold) {
  if (r.response.status != net::WireStatus::kSat &&
      r.response.status != net::WireStatus::kUnsat)
    return "status " + std::string(net::wire_status_name(r.response.status));
  if (r.response.status != wire(cold))
    return "answer " + std::string(net::wire_status_name(r.response.status)) +
           " but a cold solve says " +
           std::string(net::wire_status_name(wire(cold)));
  if (r.response.status == net::WireStatus::kUnsat) {
    if (r.response.core.empty()) return "UNSAT without a core";
    if (cold_solve(spec, r.sliders, &r.response.core) !=
        smt::CheckResult::kUnsat)
      return "its UNSAT core is satisfiable on its own";
  }
  return {};
}

std::string check_duplicate(const Record& r, const Record& first) {
  if (r.response.source != "cache")
    return "duplicate not served from the cache (source=" +
           r.response.source + ")";
  if (r.response.status != first.response.status ||
      r.response.core != first.response.core ||
      r.response.bound != first.response.bound)
    return "duplicate answer differs from its key's first answer (" +
           net::RequestCodec::render_response(r.response) + " vs " +
           net::RequestCodec::render_response(first.response) + ")";
  return {};
}

/// Exactly one response per request, carrying the request's id.
std::string check_ids(const std::vector<Record>& log, bool extra_lines) {
  if (extra_lines) return "a response nobody asked for";
  for (const Record& r : log) {
    if (!r.answered) return "request " + r.id + " got no response";
    if (r.response.id != r.id)
      return "request " + r.id + " answered as " + r.response.id;
  }
  return {};
}

std::string check_total(std::size_t sent, double requests_total) {
  if (static_cast<double>(sent) != requests_total)
    return "requests_total " + std::to_string(requests_total) + " but " +
           std::to_string(sent) + " requests sent";
  return {};
}

/// The post-delta specs of a connection's log, from the shapes and the
/// delta texts (a retune is always directly followed by its flow delta).
struct Expected {
  std::shared_ptr<const model::ProblemSpec> spec;
  smt::CheckResult cold = smt::CheckResult::kUnknown;
};

void check_phase(const Phase& phase, const std::vector<Shape>& shapes,
                 Outcome& out, std::vector<double>& apply_ms,
                 std::vector<Expected>* first_log) {
  std::size_t sent = 0;
  for (std::size_t c = 0; c < phase.logs.size(); ++c) {
    const std::vector<Record>& log = phase.logs[c];
    sent += log.size();
    out.attempted += static_cast<std::int64_t>(log.size());
    const std::string ids = check_ids(log, phase.extra_lines);
    if (!ids.empty()) {
      ++out.failed;
      out.fail_check("serve connection " + std::to_string(c) + ": " + ids);
    }

    // Expected specs, then cold verdicts of every distinct key in parallel.
    std::vector<Expected> expected(log.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
      const Record& r = log[i];
      if (r.kind == Kind::kDuplicate) continue;
      std::shared_ptr<const model::ProblemSpec> spec =
          shapes[static_cast<std::size_t>(r.shape)].spec;
      if (r.kind == Kind::kRetune || r.kind == Kind::kFlow) {
        const model::ProblemSpec& anchor =
            r.kind == Kind::kFlow ? *expected[i - 1].spec : *spec;
        const Clock::time_point t = Clock::now();
        spec = std::make_shared<const model::ProblemSpec>(
            model::apply_delta(anchor, model::parse_delta(r.delta)));
        apply_ms.push_back(since(t) * 1000);
      }
      expected[i].spec = std::move(spec);
    }
    std::vector<std::string> why(log.size());
    {
      util::ThreadPool pool(std::min<unsigned>(4, util::ThreadPool::hardware_jobs()));
      std::vector<std::future<void>> done;
      for (std::size_t i = 0; i < log.size(); ++i) {
        if (log[i].kind == Kind::kDuplicate || !log[i].answered) continue;
        done.push_back(pool.submit([&, i] {
          expected[i].cold = cold_solve(*expected[i].spec, log[i].sliders, nullptr);
          why[i] = check_answer(log[i], *expected[i].spec, expected[i].cold);
        }));
      }
      for (auto& f : done) f.get();
    }
    for (std::size_t i = 0; i < log.size(); ++i) {
      const Record& r = log[i];
      if (r.kind == Kind::kDuplicate && r.answered)
        why[i] = check_duplicate(r, log[r.first]);
      if (why[i].empty()) continue;
      ++out.failed;
      out.fail_check("serve request " + r.id + ": " + why[i]);
    }
    if (first_log != nullptr && c == 0) *first_log = std::move(expected);
  }
  const std::string total = check_total(sent, phase.requests_total);
  if (!total.empty()) {
    ++out.failed;
    out.fail_check("serve: " + total);
  }
  if (!phase.clean_exit) {
    out.correct = false;
    out.note("CHECK FAILED: the server did not exit cleanly after draining");
  }
}

/// Feeds each check a corrupted copy of a checked output.
void self_test(const Phase& phase, const std::vector<Expected>& expected,
               Outcome& out) {
  const std::vector<Record>& log = phase.logs.front();
  std::vector<Record> dropped = log;
  dropped.back().answered = false;
  out.self_test("a dropped response", !check_ids(dropped, false).empty());
  std::vector<Record> swapped = log;
  std::swap(swapped[0].response.id, swapped[1].response.id);
  out.self_test("responses with swapped ids", !check_ids(swapped, false).empty());

  bool flipped = false, core = false, duplicate = false;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const Record& r = log[i];
    if (r.kind == Kind::kDuplicate) {
      if (duplicate) continue;
      Record bad = r;
      bad.response.status = bad.response.status == net::WireStatus::kSat
                                ? net::WireStatus::kUnsat
                                : net::WireStatus::kSat;
      duplicate = !check_duplicate(bad, log[r.first]).empty();
      continue;
    }
    if (!expected[i].spec) continue;
    if (!flipped) {
      Record bad = r;
      bad.response.status = bad.response.status == net::WireStatus::kSat
                                ? net::WireStatus::kUnsat
                                : net::WireStatus::kSat;
      bad.response.core = {synth::ThresholdKind::kIsolation};
      flipped = !check_answer(bad, *expected[i].spec, expected[i].cold).empty();
    }
    if (!core && r.response.status == net::WireStatus::kUnsat) {
      // The UNSAT band needs isolation and cost together; usability alone
      // is satisfiable.
      Record bad = r;
      bad.response.core = {synth::ThresholdKind::kUsability};
      core = !check_answer(bad, *expected[i].spec, expected[i].cold).empty();
    }
  }
  out.self_test("a flipped verdict", flipped);
  out.self_test("a duplicate answered unlike its first answer", duplicate);
  out.self_test("an UNSAT core that is satisfiable alone", core);
  std::size_t sent = 0;
  for (const auto& l : phase.logs) sent += l.size();
  out.self_test("requests_total off by one",
                !check_total(sent, phase.requests_total + 1).empty());
}

void layer_split(const Phase& traced, const std::vector<Shape>& shapes,
                 const std::vector<double>& apply_ms, Outcome& out) {
  const Scrape& m = traced.metrics;
  out.set("service.queue_ms_p50", m.quantile("queue_ms", 0.50));
  out.set("service.queue_ms_p99", m.quantile("queue_ms", 0.99));
  out.set("service.solve_ms_p50", m.quantile("solve_ms", 0.50));
  const double lookups = m.get("cache_hits") + m.get("cache_misses") +
                         m.get("coalesced_waits");
  if (lookups > 0) out.set("service.cache_hit_ratio", m.get("cache_hits") / lookups);
  const double warm = m.get("warm_hits") + m.get("warm_misses");
  if (warm > 0) out.set("service.warm_hit_ratio", m.get("warm_hits") / warm);
  out.set("net.overhead_ms_p50", median(traced.overhead_ms));
  // Counters per request the server answered, so they do not grow with
  // the requests a phase fits in.
  const double requests = traced.requests_total;
  if (requests > 0) {
    out.set("service.cache_partial_hits",
            m.get("cache_partial_hits") / requests);
    out.set("service.retries", m.get("retries") / requests);
    out.set("solver.conflicts", m.get("solver_conflicts_total") / requests);
    out.set("solver.propagations",
            m.get("solver_propagations_total") / requests);
    out.set("solver.probes", m.get("solver_probes_total") / requests);
    out.set("solver.capped_probes", m.get("retries") / requests);
  }
  const double solves = m.get("solve_ms_count");
  if (solves > 0) out.set("solver.solve_ms", m.get("solve_ms_sum") / solves);
  out.set("model.delta_apply_ms", median(apply_ms));

  // Routes, encode and the checker on each served shape.
  std::vector<double> routes_ms, encode_ms, check_ms, table_ms;
  double pairs = 0, routes = 0, vars = 0, clauses = 0, linear = 0;
  for (const Shape& shape : shapes) {
    const model::ProblemSpec& spec = *shape.spec;
    const RoutesEncode layers = time_routes_encode(spec);
    routes_ms.push_back(layers.routes_ms);
    encode_ms.push_back(layers.encode_ms);
    pairs += static_cast<double>(layers.table->pairs_computed());
    routes += static_cast<double>(layers.routes);
    vars += static_cast<double>(layers.vars());
    clauses += static_cast<double>(layers.stats.clauses);
    linear += static_cast<double>(layers.stats.linear_constraints);

    synth::Synthesizer synthesizer(spec, minipb_options(kConflictLimit));
    util::Rng rng(1);
    const synth::SynthesisResult r = synthesizer.synthesize(sat_band(rng));
    if (!r.design) continue;
    Clock::time_point t = Clock::now();
    analysis::check_design(spec, *r.design, false);
    check_ms.push_back(since(t) * 1000);
    t = Clock::now();
    analysis::check_design(spec, *r.design, *layers.table, false);
    table_ms.push_back(since(t) * 1000);
  }
  out.set("topology.routes_ms", median(routes_ms));
  out.set("topology.route_pairs", pairs);
  out.set("topology.routes", routes);
  out.set("synth.encode_ms", median(encode_ms));
  out.set("synth.vars", vars);
  out.set("synth.clauses", clauses);
  out.set("synth.linear_constraints", linear);
  out.set("analysis.check_ms", median(check_ms));
  out.set("analysis.check_table_ms", median(table_ms));
}

}  // namespace

Outcome run_serve(const Args& args) {
  Outcome out;
  const std::vector<Shape> shapes = make_shapes();
  out.note("serve: configsynth_server --jobs " + std::to_string(kWorkers) +
           ", " + std::to_string(kConnections) +
           " closed-loop connections, " + std::to_string(shapes.size()) +
           " inline spec shapes");
  std::vector<Phase> phases;
  if (!args.trace) {
    phases.push_back(run_phase(args, shapes, args.seconds, ""));
    const Phase& p = phases.front();
    out.set("setup_s", p.setup_end_s);
    p.timings.report(out, true);
    out.note("op_p99_ms is a median over " + std::to_string(static_cast<int>(
                 p.timings.seconds / kTailWindowS)) +
             " windows; the whole run's 99th percentile is " +
             std::to_string(quantile(p.timings.op_ms, 0.99)) + " ms");
    out.set("peak_rss_mb", p.peak_rss_mb);
  } else {
    const std::string trace_path = args.work_dir + "/csbench-serve-" +
                                   std::to_string(args.seed) +
                                   ".server-trace.json";
    phases.push_back(run_phase(args, shapes, args.seconds / 2, ""));
    phases.push_back(run_phase(args, shapes, args.seconds / 2, trace_path));
    report_trace_overhead(phases[0].timings.op_ms, phases[1].timings.op_ms, out);
    std::ifstream in(trace_path);
    const std::string json((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    double events = 0;
    for (std::size_t at = json.find("\"ph\""); at != std::string::npos;
         at = json.find("\"ph\"", at + 4))
      events += 1;
    // Per request the traced server answered (set-up requests included).
    if (phases[1].requests_total > 0)
      out.set("trace.events", events / phases[1].requests_total);
    out.note("server trace written to " + trace_path);
  }

  std::vector<double> apply_ms;
  std::vector<Expected> expected;
  for (const Phase& p : phases)
    check_phase(p, shapes, out, apply_ms, expected.empty() ? &expected : nullptr);
  self_test(phases.front(), expected, out);
  if (args.trace) layer_split(phases.back(), shapes, apply_ms, out);
  return out;
}

}  // namespace csbench
