// random_miss: uniform random get / set / apply over elements homed on other
// nodes. The chunks a thread touches (homed on the other three nodes, 12 MiB
// of the two 8 MiB arrays) are 12x its node's 1 MiB cache, so nearly every
// access is a remote miss and pays the full hop chain (runtime thread -> Tx
// -> fabric -> Rx -> remote runtime -> back).
#include <memory>
#include <thread>

#include "checks.hpp"
#include "common/rng.hpp"
#include "core/darray.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using darray::DArray;
using darray::Xoshiro256;
namespace rt = darray::rt;

void add_one(uint64_t& acc, uint64_t d) { acc += d; }

// Per array: 8 MiB of u64. App thread t runs on node t.
constexpr uint64_t kElems = uint64_t{1} << 20;

// Classified latencies of the traced phase.
struct CoreHists {
  Hist get_miss, set_miss, apply;
  uint64_t accesses = 0, hits = 0, get_misses = 0;
  void merge(const CoreHists& o) {
    get_miss.merge(o.get_miss);
    set_miss.merge(o.set_miss);
    apply.merge(o.apply);
    accesses += o.accesses;
    hits += o.hits;
    get_misses += o.get_misses;
  }
};

struct PhaseOut {
  uint64_t ops = 0;
  double seconds = 0;
  PhaseRec rec;
  CoreHists core;
  void merge(const PhaseOut& o) { core.merge(o.core); }
};

class RandomMiss {
 public:
  explicit RandomMiss(uint64_t seed) : seed_(seed) {}

  // Input generation (not timed): per-thread chunk lists and RNG streams.
  void plan(const darray::ClusterConfig& cfg) {
    cfg_ = cfg;
    ce_ = cfg.chunk_elems;
    n_chunks_ = (kElems + ce_ - 1) / ce_;
    issued_ = std::make_unique<std::atomic<uint32_t>[]>(kElems);
    applied_ = std::make_unique<std::atomic<uint32_t>[]>(kElems);
    ts_.resize(kNodes);
    for (uint32_t t = 0; t < kNodes; ++t) {
      ts_[t].rng = Xoshiro256(mix_seed(seed_, 1, t));
      ts_[t].last_seen.assign(kElems, 0);
    }
  }

  // The program's set-up (timed by the caller): cluster, arrays, initial data.
  void setup() {
    cluster_ = std::make_unique<rt::Cluster>(cfg_);
    data_ = DArray<uint64_t>::create(*cluster_, kElems);
    counters_ = DArray<uint64_t>::create(*cluster_, kElems);
    add_ = counters_.register_op(&add_one, 0);
    writer_.assign(n_chunks_, kNoWriter);
    for (uint64_t c = 0; c < n_chunks_; ++c) {
      const uint32_t home = data_.meta().home_of_chunk(c);
      std::vector<uint32_t> cand;
      for (uint32_t t = 0; t < kNodes; ++t)
        if (t != home) cand.push_back(t);
      if (!cand.empty()) writer_[c] = cand[c % cand.size()];
      for (uint32_t t = 0; t < kNodes; ++t) {
        if (t == home) continue;
        ts_[t].remote_chunks.push_back(c);
        if (writer_[c] == t) ts_[t].own_chunks.push_back(c);
      }
    }
    // Each node loads its own range: version 0 everywhere, counters zero.
    std::vector<std::thread> loaders;
    for (uint32_t n = 0; n < cfg_.num_nodes; ++n) {
      loaders.emplace_back([this, n] {
        darray::bind_thread(*cluster_, n);
        const uint64_t b = data_.local_begin(n), e = data_.local_end(n);
        std::vector<uint64_t> buf(e - b);
        for (uint64_t i = b; i < e; ++i) buf[i - b] = check::encode(i, 0);
        if (!buf.empty()) (void)data_.set_range(b, buf);
        counters_.fill(counters_.local_begin(n), counters_.local_end(n), 0);
      });
    }
    for (auto& t : loaders) t.join();
  }

  rt::Cluster& cluster() { return *cluster_; }

  // One closed-loop phase of `duration_ns`. With `tracer`, the accesses are
  // classified and timed per kind and every call is recorded as a span.
  PhaseOut run(uint64_t duration_ns, Tracer* tracer) {
    return closed_loop<PhaseOut>(
        kNodes, duration_ns,
        [&](uint32_t t) {
          darray::bind_thread(*cluster_, t);
          return tracer ? &tracer->thread_buf(t) : nullptr;
        },
        [&](uint32_t t, SpanBuf* spans, uint64_t deadline, PhaseOut& out) {
          loop(t, deadline, out.rec, tracer ? &out.core : nullptr, spans);
        });
  }

  // Final state against the generator: every element holds its writer's last
  // version, and the counters conserve the applies issued.
  void final_check(Report& r) {
    for (const auto& s : ts_)
      for (const auto& e : s.errors) r.error(e);
    std::vector<uint64_t> data(kElems), counters(kElems), applied(kElems);
    std::thread reader([&] {
      darray::bind_thread(*cluster_, 0);
      if (data_.get_range(0, data) != darray::Status::kOk ||
          counters_.get_range(0, counters) != darray::Status::kOk)
        r.error("final get_range failed");
    });
    reader.join();
    for (uint64_t i = 0; i < kElems; ++i) {
      const std::string e = check::final_error(i, data[i], issued_[i].load());
      if (!e.empty()) {
        r.error(e);
        break;
      }
      applied[i] = applied_[i].load();
    }
    const std::string e = check::apply_error(counters, applied);
    if (!e.empty()) r.error(e);
  }

  void teardown() { cluster_.reset(); }

 private:
  static constexpr uint32_t kNoWriter = ~0u;

  struct ThreadState {
    Xoshiro256 rng;
    std::vector<uint32_t> last_seen;
    std::vector<uint64_t> remote_chunks;  // chunks not homed on this node
    std::vector<uint64_t> own_chunks;     // chunks this thread writes
    std::vector<std::string> errors;
  };

  uint64_t pick(Xoshiro256& rng, const std::vector<uint64_t>& chunks) const {
    const uint64_t c = chunks[rng.next_below(chunks.size())];
    const uint64_t len = std::min<uint64_t>(ce_, kElems - c * ce_);
    return c * ce_ + rng.next_below(len);
  }

  void loop(uint32_t t, uint64_t deadline, PhaseRec& rec, CoreHists* core, SpanBuf* spans) {
    ThreadState& s = ts_[t];
    uint64_t done = 0;
    for (;;) {
      const uint32_t kind = static_cast<uint32_t>(s.rng.next_below(3));
      if (kind == 1 && s.own_chunks.empty()) continue;
      const uint64_t i = pick(s.rng, kind == 1 ? s.own_chunks : s.remote_chunks);
      const DArray<uint64_t>& arr = kind == 2 ? counters_ : data_;
      const bool hit = core != nullptr && arr.range_cached(i, 1);
      const uint64_t t0 = now_ns();
      if (t0 >= deadline) break;
      uint64_t t1 = 0;
      if (kind == 0) {
        const uint64_t v = data_.get(i);
        t1 = now_ns();
        const uint32_t iss = issued_[i].load(std::memory_order_acquire);
        std::string e = check::read_error(i, v, iss, s.last_seen[i], writer_[i / ce_] == t);
        if (!e.empty() && s.errors.size() < 5) s.errors.push_back(std::move(e));
      } else if (kind == 1) {
        const uint32_t ver = issued_[i].load(std::memory_order_relaxed) + 1;
        issued_[i].store(ver, std::memory_order_release);
        data_.set(i, check::encode(i, ver));
        t1 = now_ns();
      } else {
        applied_[i].fetch_add(1, std::memory_order_relaxed);
        counters_.apply(i, add_, 1);
        t1 = now_ns();
      }
      rec.record(t0, t1);
      ++done;
      if (core != nullptr) {
        ++core->accesses;
        if (hit) ++core->hits;
        if (kind == 2) core->apply.record(t1 - t0);
        if (!hit && kind == 0) {
          core->get_miss.record(t1 - t0);
          ++core->get_misses;
        }
        if (!hit && kind == 1) core->set_miss.record(t1 - t0);
      }
      if (spans != nullptr) {
        static const char* const kNames[] = {"core.get", "core.set", "core.apply"};
        spans->add(spans->begin_id(), 0, (uint64_t{t} << 32) | done, kNames[kind], t0, t1);
      }
    }
  }

  uint64_t seed_;
  darray::ClusterConfig cfg_;
  uint64_t ce_ = 0, n_chunks_ = 0;
  std::unique_ptr<rt::Cluster> cluster_;
  DArray<uint64_t> data_, counters_;
  darray::OpHandle<uint64_t> add_;
  std::vector<uint32_t> writer_;  // per chunk
  std::unique_ptr<std::atomic<uint32_t>[]> issued_;   // per element, by its writer
  std::unique_ptr<std::atomic<uint32_t>[]> applied_;  // per element
  std::vector<ThreadState> ts_;
};

void set_core_metrics(Report& r, const CoreHists& c) {
  r.set("core.get_miss_p50_us", c.get_miss.quantile(0.50) / 1e3, "us");
  r.set("core.get_miss_p99_us", c.get_miss.quantile(0.99) / 1e3, "us");
  r.set("core.set_miss_p50_us", c.set_miss.quantile(0.50) / 1e3, "us");
  r.set("core.set_miss_p99_us", c.set_miss.quantile(0.99) / 1e3, "us");
  r.set("core.apply_p50_ns", c.apply.quantile(0.50), "ns");
  r.set("core.hit_ratio", safe_div(static_cast<double>(c.hits), static_cast<double>(c.accesses)),
        "fraction");
}

// Benchmark-side get misses against the runtime's read-miss counter. The
// classification is advisory (range_cached() can go stale between the probe
// and the call), hence the 5 % allowance.
void miss_cross_check(Report& r, const CoreHists& c, const darray::obs::StatsSnapshot& d) {
  cross_check(r, "random_miss get misses vs runtime.local_read_misses",
              static_cast<double>(c.get_misses), stat(d, "runtime.local_read_misses"), 0.05);
}

}  // namespace

Report run_random_miss(const RunOptions& opt) {
  Report r;
  RandomMiss w(opt.seed);
  w.plan(base_config());
  const uint64_t t_setup = now_ns();
  w.setup();
  const double setup_s = static_cast<double>(now_ns() - t_setup) / 1e9;

  const auto ns = [](double s) { return static_cast<uint64_t>(s * 1e9); };
  r.attempted += w.run(ns(warmup_seconds(opt.seconds)), nullptr).ops;

  if (!opt.trace) {
    const PhaseOut m = w.run(ns(opt.seconds), nullptr);
    r.attempted += m.ops;
    set_e2e(r, m.rec, setup_s);
  } else {
    const PhaseOut plain = w.run(ns(opt.seconds / 2), nullptr);
    r.attempted += plain.ops;
    PhaseOut tr;
    const auto d = traced_phase(r, opt, "random_miss", safe_div(plain.ops, plain.seconds),
                                [&](Tracer& tracer, PhaseTotals& tot) {
                                  w.cluster().mark_stats_baseline("traced");
                                  tr = w.run(ns(opt.seconds / 2), &tracer);
                                  tot.ops = tr.ops;
                                  tot.seconds = tr.seconds;
                                  return w.cluster().stats_delta_since("traced");
                                });
    r.attempted += tr.ops;
    set_core_metrics(r, tr.core);
    miss_cross_check(r, tr.core, d);
    // Every get miss moves at least its 8-byte element across the fabric.
    at_least(r, "fabric data bytes vs requested get-miss payload",
             stat(d, "fabric.bytes_written") + stat(d, "fabric.bytes_read"),
             8.0 * static_cast<double>(tr.core.get_misses));
  }
  w.final_check(r);
  w.teardown();
  return r;
}

}  // namespace perfbench
