// ycsb_kvs: YCSB-style zipf(0.99) requests, 95 % get / 5 % put, sent through
// darray::Client sessions to the KvsService serve path. One session per node,
// each keeping a window of requests in flight (closed loop, no shedding: the
// sessions' combined window stays below the dispatchers' accept queue). Each
// KVS operation runs on the key owner's own partition, so the DArray runtime
// sees no remote traffic here; bucket locks and serve dispatch carry the
// cost. The owner-side hot-key cache answers few gets on this stream (see
// the README).
#include <deque>
#include <memory>
#include <thread>

#include "checks.hpp"
#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "kvs/kvs.hpp"
#include "serve/client.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using darray::Xoshiro256;
namespace rt = darray::rt;
namespace sv = darray::serve;

constexpr uint64_t kKeys = 20000;
constexpr size_t kValueBytes = 100;
constexpr double kGetRatio = 0.95;
constexpr double kTheta = 0.99;
constexpr uint32_t kSessions = kNodes;  // session t enters at node t
constexpr uint32_t kWindow = 8;         // in-flight requests per session

// Direct-DKvs replay length per session in the traced run.
constexpr uint64_t kReplayOps = 5000;

std::string key_name(uint64_t k) { return "user" + std::to_string(k); }

struct PhaseOut {
  uint64_t ops = 0, failed = 0, gets = 0;
  double seconds = 0;
  PhaseRec rec;
  uint64_t remote_payload_bytes = 0;  // key/value bytes of requests that cross nodes
  std::vector<uint64_t> per_session_ops;
  void merge(const PhaseOut& o) {
    failed += o.failed;
    gets += o.gets;
    remote_payload_bytes += o.remote_payload_bytes;
    per_session_ops.push_back(o.ops);
  }
};

struct DirectOut {
  Hist get, put, all;
};

class YcsbKvs {
 public:
  explicit YcsbKvs(uint64_t seed) : seed_(seed), zipf_(kKeys, kTheta) {}

  void plan() {
    issued_ = std::make_unique<std::atomic<uint32_t>[]>(kKeys);
    ss_.resize(kSessions);
    for (uint32_t s = 0; s < kSessions; ++s) {
      ss_[s].rng = Xoshiro256(mix_seed(seed_, 2, s));
      ss_[s].last_seen.assign(kKeys, 0);
    }
  }

  // Timed set-up: cluster, KVS, service, and loading every key at version 0.
  void setup(Report& r) {
    r.attempted += kKeys;
    cluster_ = std::make_unique<rt::Cluster>(base_config());
    kvs_ = darray::kvs::DKvs::create(*cluster_, darray::kvs::KvsConfig{});
    svc_ = sv::KvsService::create(*cluster_, kvs_, sv::ServeConfig{});
    std::vector<std::thread> ts;
    std::atomic<uint64_t> bad{0};
    for (uint32_t n = 0; n < kNodes; ++n) {
      ts.emplace_back([&, n] {
        sv::Client cli = sv::Client::connect(svc_, {.node = n, .window = 16});
        std::deque<sv::OpHandle> q;
        auto harvest = [&] {
          if (q.front().get().status != darray::Status::kOk) bad.fetch_add(1);
          q.pop_front();
        };
        for (uint64_t k = n; k < kKeys; k += kNodes) {
          q.push_back(cli.async_put(key_name(k), check::kv_value(k, 0, kValueBytes)));
          if (q.size() >= 16) harvest();
        }
        while (!q.empty()) harvest();
      });
    }
    for (auto& t : ts) t.join();
    r.failed += bad.load();
    if (bad.load() != 0) r.error("load phase: " + std::to_string(bad.load()) + " puts failed");
  }

  rt::Cluster& cluster() { return *cluster_; }

  // Closed loop through Client sessions for `duration_ns`. `replay` (if set)
  // receives each session's RNG state at the start, for the direct-DKvs
  // replay of the same stream.
  PhaseOut run(uint64_t duration_ns, Tracer* tracer,
               std::vector<Xoshiro256>* replay = nullptr) {
    if (replay) {
      replay->clear();
      for (const auto& s : ss_) replay->push_back(s.rng);
    }
    struct Ctx {
      sv::Client cli;
      SpanBuf* spans;
    };
    return closed_loop<PhaseOut>(
        kSessions, duration_ns,
        [&](uint32_t s) {
          return Ctx{sv::Client::connect(svc_, {.node = s, .window = kWindow}),
                     tracer ? &tracer->thread_buf(s) : nullptr};
        },
        [&](uint32_t s, Ctx& ctx, uint64_t deadline, PhaseOut& out) {
          session_loop(s, ctx.cli, deadline, out, ctx.spans);
        });
  }

  // The same request streams issued straight to DKvs from application
  // threads, synchronously. Puts re-write the key's current value, so the
  // replay changes no state the serve path (or its hot-key cache) holds.
  DirectOut direct(std::vector<Xoshiro256> rngs, const std::vector<uint64_t>& ops,
                   Report& r, Tracer* tracer) {
    std::vector<DirectOut> outs(kSessions);
    std::vector<std::string> errs(kSessions);
    std::vector<std::thread> ts;
    for (uint32_t s = 0; s < kSessions; ++s) {
      SpanBuf* spans = tracer ? &tracer->thread_buf(100 + s) : nullptr;
      ts.emplace_back([&, s, spans] {
        darray::bind_thread(*cluster_, s);
        for (uint64_t i = 0; i < ops[s]; ++i) {
          const Op op = next_op(s, rngs[s]);
          const std::string key = key_name(op.key);
          const uint64_t t0 = now_ns();
          if (op.get) {
            const auto v = kvs_.get(key);
            const uint64_t t1 = now_ns();
            outs[s].get.record(t1 - t0);
            outs[s].all.record(t1 - t0);
            if (spans) spans->add(spans->begin_id(), 0, i, "kvs.get", t0, t1);
            const uint32_t iss = issued_[op.key].load();
            if (!v || *v != check::kv_value(op.key, iss, kValueBytes))
              errs[s] = "direct get of key " + std::to_string(op.key) +
                        " did not return its current value";
          } else {
            const bool ok = kvs_.put(
                key, check::kv_value(op.key, issued_[op.key].load(), kValueBytes));
            const uint64_t t1 = now_ns();
            outs[s].put.record(t1 - t0);
            outs[s].all.record(t1 - t0);
            if (spans) spans->add(spans->begin_id(), 0, i, "kvs.put", t0, t1);
            if (!ok) errs[s] = "direct put of key " + std::to_string(op.key) + " failed";
          }
        }
      });
    }
    for (auto& t : ts) t.join();
    DirectOut out;
    for (uint32_t s = 0; s < kSessions; ++s) {
      out.get.merge(outs[s].get);
      out.put.merge(outs[s].put);
      out.all.merge(outs[s].all);
      if (!errs[s].empty()) r.error(errs[s]);
    }
    return out;
  }

  // Every key that was ever written holds its writer's last version.
  void final_check(Report& r) {
    for (const auto& s : ss_)
      for (const auto& e : s.errors) r.error(e);
    sv::Client cli = sv::Client::connect(svc_, {.node = 0, .window = 16});
    std::deque<std::pair<uint64_t, sv::OpHandle>> q;
    uint64_t wrong = 0, first_wrong = 0;
    auto harvest = [&] {
      auto [k, h] = std::move(q.front());
      q.pop_front();
      const sv::Response resp = h.get();
      if (resp.status != darray::Status::kOk ||
          resp.value != check::kv_value(k, issued_[k].load(), kValueBytes)) {
        if (wrong++ == 0) first_wrong = k;
      }
    };
    for (uint64_t k = 0; k < kKeys; ++k) {
      if (issued_[k].load() == 0) continue;
      q.emplace_back(k, cli.async_get(key_name(k)));
      if (q.size() >= 16) harvest();
    }
    while (!q.empty()) harvest();
    if (wrong != 0)
      r.error(std::to_string(wrong) + " keys do not hold their last write (first: key " +
              std::to_string(first_wrong) + ")");
  }

  void teardown() {
    svc_.shutdown();
    svc_ = {};
    kvs_ = {};
    cluster_.reset();
  }

 private:
  struct SessionState {
    Xoshiro256 rng;
    std::vector<uint32_t> last_seen;
    std::vector<std::string> errors;
  };
  struct Op {
    bool get = true;
    uint64_t key = 0;
  };
  struct Pending {
    Op op;
    uint64_t t0 = 0;
    uint64_t id = 0;
    uint32_t own_version = 0;  // own-key get: this session's last put before it
    sv::OpHandle h;
  };

  // A zipf draw; a put goes to the key of the same rank group that this
  // session owns (key % sessions == s), so every key has a single writer.
  Op next_op(uint32_t s, Xoshiro256& rng) const {
    Op op;
    op.key = zipf_.next(rng);
    op.get = rng.next_double() < kGetRatio;
    if (!op.get) {
      op.key = op.key - op.key % kSessions + s;
      if (op.key >= kKeys) op.key -= kSessions;
    }
    return op;
  }

  void session_loop(uint32_t s, sv::Client& cli, uint64_t deadline, PhaseOut& out,
                    SpanBuf* spans) {
    SessionState& st = ss_[s];
    std::deque<Pending> q;
    auto harvest = [&] {
      Pending p = std::move(q.front());
      q.pop_front();
      const uint64_t ta = spans ? now_ns() : 0;
      const sv::Response resp = p.h.get();
      const uint64_t t1 = now_ns();
      out.rec.record(p.t0, t1);
      if (spans) {
        const uint64_t root = spans->begin_id();
        spans->add(root, 0, p.id, "request", p.t0, t1);
        spans->add(spans->begin_id(), root, p.id, "client.await", ta, t1);
      }
      if (resp.status != darray::Status::kOk) {
        ++out.failed;
        if (st.errors.size() < 5)
          st.errors.push_back(std::string("request returned ") +
                              darray::status_name(resp.status));
        return;
      }
      if (p.op.get) {
        const bool own = p.op.key % kSessions == s;
        const uint32_t iss = issued_[p.op.key].load(std::memory_order_acquire);
        uint32_t& last = st.last_seen[p.op.key];
        std::string e = check::kv_read_error(p.op.key, resp.value, kValueBytes, iss, last);
        // Requests of one session are served in order, so a get of the
        // session's own key sees exactly its last put submitted before it.
        if (e.empty() && own && last != p.own_version)
          e = "session " + std::to_string(s) + " read version " + std::to_string(last) +
              " of key " + std::to_string(p.op.key) + " after writing " +
              std::to_string(p.own_version);
        if (!e.empty() && st.errors.size() < 5) st.errors.push_back(std::move(e));
      }
    };
    for (uint64_t i = 0;; ++i) {
      const Op op = next_op(s, st.rng);
      const uint64_t t0 = now_ns();
      if (t0 >= deadline) break;
      const std::string key = key_name(op.key);
      Pending p{op, t0, (uint64_t{s} << 40) | i, 0, {}};
      const bool remote = kvs_.owner_of(key) != s;
      if (op.get) {
        if (op.key % kSessions == s) p.own_version = issued_[op.key].load();
        p.h = cli.async_get(key);
        ++out.gets;
        if (remote) out.remote_payload_bytes += key.size() + kValueBytes;
      } else {
        const uint32_t ver = issued_[op.key].load(std::memory_order_relaxed) + 1;
        issued_[op.key].store(ver, std::memory_order_release);
        p.h = cli.async_put(key, check::kv_value(op.key, ver, kValueBytes));
        if (remote) out.remote_payload_bytes += key.size() + kValueBytes;
      }
      if (spans) spans->add(spans->begin_id(), 0, p.id, "client.submit", t0, now_ns());
      q.push_back(std::move(p));
      ++out.ops;
      if (q.size() >= kWindow) harvest();
    }
    while (!q.empty()) harvest();
  }

  uint64_t seed_;
  darray::ZipfGenerator zipf_;
  std::unique_ptr<rt::Cluster> cluster_;
  darray::kvs::DKvs kvs_;
  sv::KvsService svc_;
  std::unique_ptr<std::atomic<uint32_t>[]> issued_;  // per key, by its writer session
  std::vector<SessionState> ss_;
};

}  // namespace

Report run_ycsb_kvs(const RunOptions& opt) {
  Report r;
  YcsbKvs w(opt.seed);
  w.plan();
  const uint64_t t_setup = now_ns();
  w.setup(r);
  const double setup_s = static_cast<double>(now_ns() - t_setup) / 1e9;

  const auto ns = [](double s) { return static_cast<uint64_t>(s * 1e9); };
  const auto count = [&r](const PhaseOut& o) {
    r.attempted += o.ops;
    r.failed += o.failed;
  };
  count(w.run(ns(warmup_seconds(opt.seconds)), nullptr));

  if (!opt.trace) {
    const PhaseOut m = w.run(ns(opt.seconds), nullptr);
    count(m);
    set_e2e(r, m.rec, setup_s);
  } else {
    const PhaseOut plain = w.run(ns(opt.seconds / 2), nullptr);
    count(plain);
    PhaseOut tr;
    std::vector<Xoshiro256> replay;
    const auto d = traced_phase(r, opt, "ycsb_kvs", safe_div(plain.ops, plain.seconds),
                                [&](Tracer& tracer, PhaseTotals& tot) {
                                  w.cluster().mark_stats_baseline("traced");
                                  tr = w.run(ns(opt.seconds / 2), &tracer, &replay);
                                  tot.ops = tr.ops;
                                  tot.seconds = tr.seconds;
                                  return w.cluster().stats_delta_since("traced");
                                });
    count(tr);

    // The same streams straight to DKvs, with tracing on as in the client
    // phase they are compared with. The replay is synchronous, so it covers
    // a prefix of each session's stream: enough samples for a p99, without
    // doubling the run.
    std::vector<uint64_t> replay_ops = tr.per_session_ops;
    for (uint64_t& n : replay_ops) n = std::min<uint64_t>(n, kReplayOps);
    Tracer direct_spans;
    darray::obs::set_tracing(true);
    const DirectOut dk = w.direct(replay, replay_ops, r, &direct_spans);
    darray::obs::set_tracing(false);
    write_spans(r, opt, direct_spans, "ycsb_kvs-direct");

    r.set("kvs.get_p50_us", dk.get.quantile(0.50) / 1e3, "us");
    r.set("kvs.get_p99_us", dk.get.quantile(0.99) / 1e3, "us");
    r.set("kvs.put_p50_us", dk.put.quantile(0.50) / 1e3, "us");
    r.set("kvs.put_p99_us", dk.put.quantile(0.99) / 1e3, "us");
    r.set("serve.overhead_p50_us",
          (tr.rec.all().quantile(0.50) - dk.all.quantile(0.50)) / 1e3, "us");
    r.set("serve.overhead_p99_us",
          (tr.rec.all().quantile(0.99) - dk.all.quantile(0.99)) / 1e3, "us");
    r.set("serve.hot_hit_ratio",
          safe_div(stat(d, "serve.hot_hits"), static_cast<double>(tr.gets)), "fraction");
    r.notes.push_back("serve hot-key cache over the traced half: " +
                      std::to_string(d.value_or("serve.hot_promotions", 0)) + " promotions, " +
                      std::to_string(d.value_or("serve.hot_hits", 0)) + " hits, " +
                      std::to_string(d.value_or("serve.hot_invalidations", 0)) +
                      " invalidations, " + std::to_string(tr.gets) + " gets");

    cross_check(r, "client requests vs serve.completed", static_cast<double>(tr.ops),
                stat(d, "serve.completed"), 0);
    cross_check(r, "client requests vs serve.reqs_wire + serve.reqs_local",
                static_cast<double>(tr.ops),
                stat(d, "serve.reqs_wire") + stat(d, "serve.reqs_local"), 0);
    at_least(r, "fabric bytes vs cross-node request payload",
             stat(d, "fabric.bytes_sent") + stat(d, "fabric.bytes_written") +
                 stat(d, "fabric.bytes_read"),
             static_cast<double>(tr.remote_payload_bytes));
  }
  w.final_check(r);
  w.teardown();
  return r;
}

}  // namespace perfbench
