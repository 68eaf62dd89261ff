// gtbench/src/service_probe.cpp — the service-layer probe.
//
// The batch-cpu and gameplay workloads bypass the service path, so the
// batch-cpu traced run measures its layers here. Open loop: an in-process
// ServiceServer on a Unix socket (W engine workers, default options)
// driven by ServiceClient connections from the same process, at one
// fixed Poisson offered rate below saturation. Traffic is mostly small
// interactive trees on flat-solve/flat-ab, some mid-size spin-leaf trees
// on the mt cascades, and one tight-deadline anytime class. Half of all
// requests repeat one of a few hot trees per class; the other half carry
// a tree used once. Latency is timed from each request's scheduled send
// time. Every answer is checked against client-side truth: exact answers
// must match, a bound (tight class only) must contain the true value.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "gtpar/engine/api.hpp"
#include "gtpar/net/client.hpp"
#include "gtpar/net/server.hpp"
#include "gtpar/net/wire.hpp"
#include "gtpar/tree/generators.hpp"
#include "gtpar/tree/serialization.hpp"
#include "gtpar/tree/values.hpp"
#include "trace.hpp"

namespace gtbench {
namespace {

using gtpar::Algorithm;
using gtpar::Completeness;
using gtpar::Tree;
using gtpar::Value;
namespace net = gtpar::net;

/// Offered rate of the open loop, requests per second: about a fifth of
/// the service's closed-loop capacity on a 4-vCPU host (README.md).
constexpr double kOfferedRps = 1000;
/// Share of requests that repeat one of a class's hot trees.
constexpr double kRecurShare = 0.5;
constexpr unsigned kHotPerClass = 4;

struct RequestClass {
  const char* name;
  double weight;
  Algorithm algorithm;
  bool minimax;
  unsigned d, n;
  std::uint64_t leaf_cost_ns;  // spin
  std::uint64_t deadline_ns;   // 0 = none; else anytime bounds are answers
};

constexpr RequestClass kClasses[] = {
    {"solve-small", 0.40, Algorithm::kFlatSolve, false, 2, 8, 0, 0},
    {"ab-small", 0.35, Algorithm::kFlatAb, true, 3, 5, 0, 0},
    {"solve-mid", 0.10, Algorithm::kMtParallelSolve, false, 2, 11, 200, 0},
    {"ab-mid", 0.10, Algorithm::kMtParallelAb, true, 3, 7, 200, 0},
    {"ab-tight", 0.05, Algorithm::kMtParallelAb, true, 3, 8, 500, 1'000'000},
};
constexpr std::size_t kNumClasses = std::size(kClasses);

struct Prepared {
  net::WireRequest wire;
  Value truth = 0;
  std::size_t cls = 0;
};

struct Workload {
  std::vector<Prepared> reqs;  ///< one per arrival, in order
  std::vector<double> sched_s; ///< open-loop send times from phase start
};

Prepared prepare(const RequestClass& rc, std::size_t cls, std::uint64_t seed) {
  Tree t = rc.minimax ? gtpar::make_uniform_iid_minimax(rc.d, rc.n, -100, 100, seed)
                      : gtpar::make_uniform_iid_nor(rc.d, rc.n, gtpar::golden_bias(), seed);
  Prepared p;
  p.cls = cls;
  p.truth = rc.minimax ? gtpar::minimax_value(t) : Value(gtpar::nor_value(t));
  p.wire.algorithm = static_cast<std::uint8_t>(rc.algorithm);
  p.wire.width = 2;
  p.wire.anytime = true;
  p.wire.leaf_cost_ns = rc.leaf_cost_ns;
  p.wire.cost_model = static_cast<std::uint8_t>(gtpar::LeafCostModel::kSpin);
  p.wire.deadline_ns = rc.deadline_ns;
  p.wire.tree_text = gtpar::to_string(t);
  return p;
}

/// Poisson arrivals over `seconds`, each drawing a class by weight and
/// then a hot tree (recurring) or a fresh one.
Workload make_workload(std::uint64_t seed, double seconds) {
  Rng rng(seed ^ 0x5e41ull);
  std::vector<std::vector<Prepared>> hot(kNumClasses);
  for (std::size_t c = 0; c < kNumClasses; ++c)
    for (unsigned k = 0; k < kHotPerClass; ++k)
      hot[c].push_back(prepare(kClasses[c], c, rng.next()));
  Workload w;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.unit()) / kOfferedRps;
    if (t >= seconds) break;
    double u = rng.unit();
    std::size_t c = 0;
    while (c + 1 < kNumClasses && u >= kClasses[c].weight) u -= kClasses[c++].weight;
    if (rng.unit() < kRecurShare)
      w.reqs.push_back(hot[c][rng.below(kHotPerClass)]);
    else
      w.reqs.push_back(prepare(kClasses[c], c, rng.next()));
    w.sched_s.push_back(t);
  }
  return w;
}

enum class Verdict { kGood, kDegraded, kFailed, kWrong };

Verdict judge(const net::WireResult& r, const Prepared& p) {
  const bool anytime = kClasses[p.cls].deadline_ns != 0;
  switch (static_cast<Completeness>(r.completeness)) {
    case Completeness::kExact:
      return r.value == p.truth ? Verdict::kGood : Verdict::kWrong;
    case Completeness::kLowerBound:
      if (!kClasses[p.cls].minimax || r.value > p.truth) return Verdict::kWrong;
      return anytime ? Verdict::kDegraded : Verdict::kFailed;
    case Completeness::kUpperBound:
      if (!kClasses[p.cls].minimax || r.value < p.truth) return Verdict::kWrong;
      return anytime ? Verdict::kDegraded : Verdict::kFailed;
    case Completeness::kFailed:
      return Verdict::kFailed;
  }
  return Verdict::kWrong;
}

struct Tally {
  std::uint64_t attempted = 0, good = 0, failed = 0, wrong = 0, degraded = 0,
                shed = 0, errors = 0, missing = 0;
  std::vector<double> latency_ms, lag_ms, search_ms, outside_ms;
  std::vector<std::size_t> cls;  ///< class of each latency sample
  void merge(const Tally& o) {
    attempted += o.attempted;
    good += o.good;
    failed += o.failed;
    wrong += o.wrong;
    degraded += o.degraded;
    shed += o.shed;
    errors += o.errors;
    missing += o.missing;
    for (auto [dst, src] : {std::pair{&latency_ms, &o.latency_ms},
                            {&lag_ms, &o.lag_ms}, {&search_ms, &o.search_ms},
                            {&outside_ms, &o.outside_ms}})
      dst->insert(dst->end(), src->begin(), src->end());
    cls.insert(cls.end(), o.cls.begin(), o.cls.end());
  }
  /// Record one final frame for `p`; times are steady-clock ns.
  void record(const net::Frame& f, const Prepared& p, std::int64_t sched,
              std::int64_t sent, std::int64_t recv) {
    if (f.header.type == net::FrameType::kError) {
      const auto err = net::decode_error(f.payload.data(), f.payload.size());
      ++(err.code == net::ErrorCode::kOverloaded ? shed : errors);
      ++failed;
      return;
    }
    const auto r = net::decode_result(f.payload.data(), f.payload.size());
    const Verdict v = judge(r, p);
    if (v == Verdict::kWrong) ++wrong;
    if (v == Verdict::kWrong || v == Verdict::kFailed) {
      ++failed;
      return;
    }
    if (v == Verdict::kDegraded) ++degraded;
    ++good;
    latency_ms.push_back(double(recv - sched) / 1e6);
    cls.push_back(p.cls);
    search_ms.push_back(double(r.wall_ns) / 1e6);
    outside_ms.push_back(double(recv - sent - std::int64_t(r.wall_ns)) / 1e6);
  }
};

std::unique_ptr<net::ServiceServer> start_server(unsigned workers,
                                                const std::string& path) {
  net::ServiceOptions opt;
  opt.unix_path = path;
  opt.engine.workers = workers;
  auto srv = std::make_unique<net::ServiceServer>(opt);
  srv->start();
  return srv;
}

/// Open loop over arrivals [first, last): one sender thread dispatches on
/// the Poisson schedule round-robin over `conns` connections, each drained
/// by a receiver. Waits for every final frame (at most 10 s).
Tally open_loop(const std::string& path, const Workload& w, std::size_t first,
                std::size_t last, unsigned conns, std::uint64_t& next_req) {
  struct Pending {
    std::size_t idx;
    std::int64_t sched, sent;
    std::uint32_t span;
    std::uint64_t req;
  };
  struct Conn {
    net::ServiceClient client;
    std::thread receiver;
    std::mutex mu;
    std::unordered_map<std::uint64_t, Pending> pending;
    Tally tally;
  };
  Tracer& tr = tracer();
  std::vector<std::unique_ptr<Conn>> cs;
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::size_t outstanding = 0;
  // The chunk's time line starts 5 ms out, at its first arrival's slot.
  const std::int64_t start =
      now_ns() + 5'000'000 - std::int64_t(w.sched_s[first] * 1e9);
  for (unsigned i = 0; i < conns; ++i) {
    auto c = std::make_unique<Conn>();
    c->client = net::ServiceClient::connect_unix(path);
    Conn* cp = c.get();
    c->receiver = std::thread([&, cp] {
      try {
        while (auto f = cp->client.read_frame()) {
          if (f->header.type != net::FrameType::kResult &&
              f->header.type != net::FrameType::kError)
            continue;
          const std::int64_t recv = now_ns();
          Pending p;
          {
            std::lock_guard<std::mutex> lock(cp->mu);
            auto it = cp->pending.find(f->header.request_id);
            if (it == cp->pending.end()) continue;
            p = it->second;
            cp->pending.erase(it);
          }
          tr.close(p.span, recv);
          if (f->header.type == net::FrameType::kResult && tr.on()) {
            const auto r = net::decode_result(f->payload.data(), f->payload.size());
            tr.add("threads.search", p.req, p.span, recv - std::int64_t(r.wall_ns),
                   recv, true);
          }
          cp->tally.record(*f, w.reqs[p.idx], p.sched, p.sent, recv);
          std::lock_guard<std::mutex> lock(done_mu);
          if (--outstanding == 0) done_cv.notify_all();
        }
      } catch (const std::exception&) {
        // Connection closed under us at the end of the phase.
      }
    });
    cs.push_back(std::move(c));
  }

  Tally lag;
  for (std::size_t i = first; i < last; ++i) {
    const std::int64_t sched = start + std::int64_t(w.sched_s[i] * 1e9);
    std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(sched)));
    Conn& c = *cs[i % conns];
    const std::uint64_t req = ++next_req;
    const std::int64_t sent = now_ns();
    const std::uint32_t span = tr.open("net.request", req, 0, sched);
    tr.add("loadgen.lag", req, span, sched, sent);
    lag.lag_ms.push_back(double(sent - sched) / 1e6);
    {
      std::lock_guard<std::mutex> lock(done_mu);
      ++outstanding;
    }
    {
      std::lock_guard<std::mutex> lock(c.mu);
      c.pending[req] = Pending{i, sched, sent, span, req};
    }
    c.client.send_request(w.reqs[i].wire, req);
    tr.add("net.send", req, span, sent, now_ns());
    ++lag.attempted;
  }
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait_for(lock, std::chrono::seconds(10), [&] { return outstanding == 0; });
  }
  for (auto& c : cs) {
    c->client.finish_sending();
    c->receiver.join();
    lag.missing += c->pending.size();  // no final frame: failed
    lag.failed += c->pending.size();
    lag.merge(c->tally);
  }
  return lag;
}

/// parse_tree and the four codecs on the mix's payloads.
void layer_probes(const Workload& w, std::map<std::string, double>& m) {
  double parse_ns = 0, nodes = 0, codec_ns = 0, bytes = 0;
  const std::size_t n = std::min<std::size_t>(w.reqs.size(), 1000);
  for (std::size_t i = 0; i < n; ++i) {
    const Prepared& p = w.reqs[i];
    {
      Scoped span("tree.parse", 0);
      const auto t0 = Clock::now();
      const Tree t = gtpar::parse_tree(p.wire.tree_text);
      parse_ns += seconds_since(t0) * 1e9;
      nodes += double(t.size());
    }
    Scoped span("net.codec", 0);
    const auto t0 = Clock::now();
    const auto req_bytes = net::encode_request(p.wire);
    const auto back = net::decode_request(req_bytes.data(), req_bytes.size());
    net::WireResult res;
    res.value = p.truth;
    const auto res_bytes = net::encode_result(res);
    const auto res_back = net::decode_result(res_bytes.data(), res_bytes.size());
    codec_ns += seconds_since(t0) * 1e9;
    bytes += double(req_bytes.size());
    if (back.tree_text.size() != p.wire.tree_text.size() || res_back.value != p.truth)
      std::fprintf(stderr, "gtbench: codec round trip mismatch\n");
  }
  m["tree.parse_ns_per_node"] = parse_ns / std::max(1.0, nodes);
  m["tree.payload_bytes_per_req"] = bytes / double(std::max<std::size_t>(1, n));
  m["net.codec_ns_per_req"] = codec_ns / double(std::max<std::size_t>(1, n));
}

std::string note(const char* what, const Tally& t, double rate) {
  std::string per_class;
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    std::vector<double> v;
    for (std::size_t i = 0; i < t.cls.size(); ++i)
      if (t.cls[i] == c) v.push_back(t.latency_ms[i]);
    per_class += fmt(" %s(n=%zu p50=%.3f p99=%.3f)", kClasses[c].name, v.size(),
                     percentile(v, 0.5), percentile(v, 0.99));
  }
  return fmt("service probe %s: sent=%llu good=%llu degraded=%llu shed=%llu "
             "errors=%llu missing=%llu wrong=%llu goodput=%.1f/s p50=%.3fms "
             "p99=%.3fms send_lag_p99=%.3fms; per class ms:%s",
             what, static_cast<unsigned long long>(t.attempted),
             static_cast<unsigned long long>(t.good),
             static_cast<unsigned long long>(t.degraded),
             static_cast<unsigned long long>(t.shed),
             static_cast<unsigned long long>(t.errors),
             static_cast<unsigned long long>(t.missing),
             static_cast<unsigned long long>(t.wrong), rate,
             percentile(t.latency_ms, 0.5), percentile(t.latency_ms, 0.99),
             percentile(t.lag_ms, 0.99), per_class.c_str());
}

/// The open loop runs as chunks of the schedule, each behind its own
/// host-control gate; the goodput is per chunk.
struct Chunks {
  Tally all;
  std::vector<double> rate;
};

/// Index bounds of `chunks` equal-time chunks of the schedule.
std::vector<std::size_t> chunk_bounds(const Workload& w, double open_s, unsigned chunks) {
  std::vector<std::size_t> b;
  for (unsigned k = 0; k <= chunks; ++k)
    b.push_back(std::size_t(
        std::lower_bound(w.sched_s.begin(), w.sched_s.end(), open_s * k / chunks) -
        w.sched_s.begin()));
  return b;
}

void run_chunk(HostControl& host, const std::string& path, const Workload& w,
               std::size_t first, std::size_t last, double chunk_s, unsigned conns,
               std::uint64_t& req, Chunks& c) {
  host.before_phase(fmt("service-probe open-loop chunk at request %zu", first).c_str());
  const Tally t = open_loop(path, w, first, last, conns, req);
  c.rate.push_back(double(t.good) / chunk_s);
  c.all.merge(t);
}

/// The service-path layer metrics of the traced chunks `t`, which ran
/// requests [req_lo, req_hi) between the two server snapshots.
void service_layers(const Tally& t, const net::ServiceStats& s0,
                    const net::ServiceStats& s1, const gtpar::EngineStats& e0,
                    const gtpar::EngineStats& e1, const Workload& w,
                    std::uint64_t req_lo, std::uint64_t req_hi,
                    std::map<std::string, double>& m) {
  std::map<std::string, double> eng;
  engine_metrics(e0, e1, double(t.attempted), eng);
  m["engine.dispatch_wait_ms_avg"] = eng["engine.dispatch_wait_ms_avg"];
  m["engine.dispatch_wait_ms_max"] = eng["engine.dispatch_wait_ms_max"];
  m["net.search_ms_p50"] = percentile(t.search_ms, 0.50);
  m["net.search_ms_p99"] = percentile(t.search_ms, 0.99);
  m["net.outside_search_ms_p50"] = percentile(t.outside_ms, 0.50);
  m["net.outside_search_ms_p99"] = percentile(t.outside_ms, 0.99);
  m["net.requests_shed"] = double(s1.requests_shed - s0.requests_shed);
  m["net.errors_sent"] = double(s1.errors_sent - s0.errors_sent);
  m["net.bad_frames"] = double(s1.bad_frames - s0.bad_frames);
  m["net.degraded_ratio"] = double(t.degraded) / double(std::max<std::uint64_t>(1, t.good));
  m["loadgen.send_lag_p99_ms"] = percentile(t.lag_ms, 0.99);
  const double n = double(std::max<std::uint64_t>(1, t.attempted));
  for (const auto& [module, ns] : tracer().self_ns_by_module(req_lo, req_hi))
    if (module == "net" || module == "loadgen")
      m["trace.self_ms_per_op." + module] = ns / n / 1e6;
  layer_probes(w, m);
}

}  // namespace

void service_layer_probe(const RunConfig& cfg, HostControl& host, double seconds,
                         Outcome& o) {
  ::mkdir(".bench_out", 0755);
  const Workload w = make_workload(cfg.seed, seconds);
  const std::string path = fmt(".bench_out/gtb%dp.sock", int(::getpid()));
  const auto srv = start_server(cfg.workers, path);
  constexpr unsigned kChunks = 2;
  const std::vector<std::size_t> bounds = chunk_bounds(w, seconds, kChunks);
  std::uint64_t req = kProbeReqBase;
  const auto s0 = srv->stats();
  const auto e0 = srv->engine_stats();
  Chunks c;
  for (unsigned k = 0; k < kChunks; ++k)
    run_chunk(host, path, w, bounds[k], bounds[k + 1], seconds / kChunks,
              std::min(2u, cfg.workers), req, c);
  service_layers(c.all, s0, srv->stats(), e0, srv->engine_stats(), w, kProbeReqBase,
                 req + 1, o.metrics);
  o.attempted += c.all.attempted;
  o.failed += c.all.failed;
  o.wrong += c.all.wrong;
  o.notes.push_back(note("layer probe", c.all, median(c.rate)));
}

}  // namespace gtbench
