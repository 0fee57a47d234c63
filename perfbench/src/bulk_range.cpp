// bulk_range: get_range of whole 64 KiB chunks homed on other nodes, and
// set_range of whole chunks by their home node. Every remote fill is at least
// rendezvous_threshold_bytes (32 KiB), so it takes the rendezvous READ path;
// the 12 MiB each node reads from the others is 6x its 2 MiB cache, so fills
// stay cold, and each home
// write invalidates the copies readers on the other nodes hold.
//
// Writers are the home nodes because a set_range of a remote chunk can abort
// the cluster: the Dirty copy's eviction travels as a rendezvous, whose
// notification can be overtaken by the same node's next request for the chunk
// (DARRAY_ASSERT req.src != prev_owner in Engine::home_dirty).
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

constexpr uint64_t kElems = uint64_t{1} << 21;  // 16 MiB of u64: 256 chunks
constexpr double kGetRatio = 0.75;

darray::ClusterConfig bulk_config() {
  darray::ClusterConfig cfg = base_config();
  cfg.chunk_elems = 8192;          // 64 KiB chunks of u64
  cfg.cachelines_per_region = 32;  // 2 MiB of chunk data per node
  // Each CommLayer pre-allocates num_nodes x qp_depth receive buffers of
  // chunk-sized capacity (131 KiB here); the default depth of 1024 would
  // make that 2 GiB for four nodes. 64 receives per peer still covers the
  // few messages a peer has in flight in this workload.
  cfg.qp_depth = 64;
  return cfg;
}

struct PhaseOut {
  uint64_t ops = 0, failed = 0;
  double seconds = 0;
  PhaseRec rec;
  uint64_t accesses = 0, hits = 0, get_misses = 0;
  void merge(const PhaseOut& o) {
    failed += o.failed;
    accesses += o.accesses;
    hits += o.hits;
    get_misses += o.get_misses;
  }
};

class BulkRange {
 public:
  explicit BulkRange(uint64_t seed) : seed_(seed) {}

  void plan() {
    cfg_ = bulk_config();
    ce_ = cfg_.chunk_elems;
    n_chunks_ = kElems / ce_;
    issued_ = std::make_unique<std::atomic<uint32_t>[]>(n_chunks_);
    ts_.resize(kNodes);
    for (uint32_t t = 0; t < kNodes; ++t) {
      ts_[t].rng = Xoshiro256(mix_seed(seed_, 4, t));
      ts_[t].last_seen.assign(n_chunks_, 0);
      ts_[t].buf.resize(ce_);
    }
  }

  // Timed set-up: cluster, array, and version 0 loaded by each home node.
  void setup() {
    cluster_ = std::make_unique<rt::Cluster>(cfg_);
    arr_ = DArray<uint64_t>::create(*cluster_, kElems);
    for (uint64_t c = 0; c < n_chunks_; ++c) {
      const uint32_t home = arr_.meta().home_of_chunk(c);
      for (uint32_t t = 0; t < kNodes; ++t)
        (t == home ? ts_[t].own_chunks : ts_[t].remote_chunks).push_back(c);
    }
    std::vector<std::thread> loaders;
    for (uint32_t n = 0; n < cfg_.num_nodes; ++n) {
      loaders.emplace_back([this, n] {
        darray::bind_thread(*cluster_, n);
        const uint64_t b = arr_.local_begin(n), e = arr_.local_end(n);
        std::vector<uint64_t> buf(e - b);
        for (uint64_t i = b; i < e; ++i) buf[i - b] = check::encode(i, 0);
        if (!buf.empty()) (void)arr_.set_range(b, buf);
      });
    }
    for (auto& t : loaders) t.join();
  }

  rt::Cluster& cluster() { return *cluster_; }

  // One closed-loop phase of `duration_ns`. With `tracer`, each call is
  // classified by range_cached() and recorded as a span.
  PhaseOut run(uint64_t duration_ns, Tracer* tracer) {
    return closed_loop<PhaseOut>(
        kNodes, duration_ns,
        [&](uint32_t t) {
          darray::bind_thread(*cluster_, t);
          return tracer ? &tracer->thread_buf(t) : nullptr;
        },
        [&](uint32_t t, SpanBuf* spans, uint64_t deadline, PhaseOut& out) {
          loop(t, deadline, tracer != nullptr, out, spans);
        });
  }

  // A final full read equals the last writes.
  void final_check(Report& r) {
    for (const auto& s : ts_)
      for (const auto& e : s.errors) r.error(e);
    std::vector<uint64_t> all(kElems);
    std::thread reader([&] {
      darray::bind_thread(*cluster_, 0);
      if (arr_.get_range(0, all) != darray::Status::kOk) r.error("final get_range failed");
    });
    reader.join();
    for (uint64_t i = 0; i < kElems; ++i) {
      const std::string e = check::final_error(i, all[i], issued_[i / ce_].load());
      if (!e.empty()) {
        r.error(e);
        break;
      }
    }
  }

  uint64_t chunk_bytes() const { return ce_ * sizeof(uint64_t); }
  void teardown() { cluster_.reset(); }

 private:
  struct ThreadState {
    Xoshiro256 rng;
    std::vector<uint32_t> last_seen;  // per chunk
    std::vector<uint64_t> remote_chunks;  // read by this thread
    std::vector<uint64_t> own_chunks;     // homed on this node, written by this thread
    std::vector<uint64_t> buf;
    std::vector<std::string> errors;
  };

  void loop(uint32_t t, uint64_t deadline, bool traced, PhaseOut& out, SpanBuf* spans) {
    ThreadState& s = ts_[t];
    for (;;) {
      const bool get = s.own_chunks.empty() || s.rng.next_double() < kGetRatio;
      const auto& pool = get ? s.remote_chunks : s.own_chunks;
      const uint64_t c = pool[s.rng.next_below(pool.size())];
      const uint64_t first = c * ce_;
      uint32_t ver = 0;
      if (!get) {
        ver = issued_[c].load(std::memory_order_relaxed) + 1;
        for (uint64_t k = 0; k < ce_; ++k) s.buf[k] = check::encode(first + k, ver);
      }
      const bool hit = traced && arr_.range_cached(first, ce_);
      const uint64_t t0 = now_ns();
      if (t0 >= deadline) break;
      darray::Status st;
      if (get) {
        st = arr_.get_range(first, s.buf);
      } else {
        issued_[c].store(ver, std::memory_order_release);
        st = arr_.set_range(first, std::span<const uint64_t>(s.buf));
      }
      const uint64_t t1 = now_ns();
      out.rec.record(t0, t1);
      ++out.ops;
      if (traced) {
        ++out.accesses;
        if (hit) ++out.hits;
        if (!hit && get) ++out.get_misses;
      }
      if (spans)
        spans->add(spans->begin_id(), 0, (uint64_t{t} << 32) | out.ops,
                   get ? "core.get_range" : "core.set_range", t0, t1);
      if (st != darray::Status::kOk) {
        ++out.failed;
        if (s.errors.size() < 5) s.errors.push_back("range call on chunk " + std::to_string(c) +
                                                    " returned " + darray::status_name(st));
        continue;
      }
      if (get) {
        const uint32_t iss = issued_[c].load(std::memory_order_acquire);
        std::string e = check::range_error(first, s.buf.data(), ce_, iss, s.last_seen[c]);
        if (!e.empty() && s.errors.size() < 5) s.errors.push_back(std::move(e));
      }
    }
  }

  uint64_t seed_;
  darray::ClusterConfig cfg_;
  uint64_t ce_ = 0, n_chunks_ = 0;
  std::unique_ptr<rt::Cluster> cluster_;
  DArray<uint64_t> arr_;
  std::unique_ptr<std::atomic<uint32_t>[]> issued_;  // per chunk, by its home's thread
  std::vector<ThreadState> ts_;
};

}  // namespace

Report run_bulk_range(const RunOptions& opt) {
  Report r;
  BulkRange w(opt.seed);
  w.plan();
  const uint64_t t_setup = now_ns();
  w.setup();
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
    const auto d = traced_phase(r, opt, "bulk_range", safe_div(plain.ops, plain.seconds),
                                [&](Tracer& tracer, PhaseTotals& tot) {
                                  w.cluster().mark_stats_baseline("traced");
                                  tr = w.run(ns(opt.seconds / 2), &tracer);
                                  tot.ops = tr.ops;
                                  tot.seconds = tr.seconds;
                                  return w.cluster().stats_delta_since("traced");
                                });
    count(tr);
    r.set("core.range_p50_us", tr.rec.all().quantile(0.50) / 1e3, "us");
    r.set("core.range_p99_us", tr.rec.all().quantile(0.99) / 1e3, "us");
    r.set("core.hit_ratio",
          safe_div(static_cast<double>(tr.hits), static_cast<double>(tr.accesses)), "fraction");
    at_least(r, "fabric data bytes vs requested get_range miss payload",
             stat(d, "fabric.bytes_written") + stat(d, "fabric.bytes_read"),
             static_cast<double>(tr.get_misses * w.chunk_bytes()));
  }
  w.final_check(r);
  w.teardown();
  return r;
}

}  // namespace perfbench
