// Ablations of the runtime's design choices (not a paper figure; DESIGN.md's
// per-design-choice sweep): chunk size, prefetch depth, eviction watermarks,
// and selective-signaling interval. Reports throughput plus the runtime
// counters that explain it.
#include "bench/bench_util.hpp"
#include "core/darray.hpp"
#include "net/payload_buf.hpp"
#include "rdma/verbs.hpp"

using namespace darray;
using namespace darray::bench;

namespace {

struct Result {
  double mops;
  rt::RuntimeStats stats;
  rdma::FabricStats fabric;
};

// Remote sequential read sweep — the workload most sensitive to the cache
// configuration under test.
Result sweep(rt::ClusterConfig cfg) {
  cfg.num_nodes = 2;
  rt::Cluster cluster(cfg);
  const uint64_t total = elems_per_node() * 2;
  auto arr = DArray<uint64_t>::create(cluster, total);
  const double mops =
      measure_mops(cluster, 1, total / 2, [&](rt::NodeId n, uint32_t, uint64_t i) {
        // Each node sweeps the OTHER node's half: all misses are remote.
        const uint64_t base = n == 0 ? arr.local_begin(1) : arr.local_begin(0);
        volatile uint64_t v = arr.get(base + i);
        (void)v;
      });
  return {mops, cluster.runtime_stats(), cluster.fabric().stats()};
}

void print_result(uint64_t x, const Result& r) {
  std::printf("%-12llu%12.3f%12llu%12llu%12llu%12llu\n",
              static_cast<unsigned long long>(x), r.mops,
              static_cast<unsigned long long>(r.stats.local_read_misses),
              static_cast<unsigned long long>(r.stats.fills),
              static_cast<unsigned long long>(r.stats.prefetches_issued),
              static_cast<unsigned long long>(r.stats.total_evictions()));
  std::fflush(stdout);
}

void header(const char* title) {
  std::printf("\n%s\n%-12s%12s%12s%12s%12s%12s\n", title, "value", "Mops/s", "misses",
              "fills", "prefetch", "evictions");
}

}  // namespace

int main() {
  std::printf("=== Runtime ablations (2 nodes, remote sequential read sweep) ===\n");

  header("(a) chunk size (elements) — paper default 512");
  for (uint32_t chunk : {64u, 128u, 256u, 512u, 1024u}) {
    rt::ClusterConfig cfg = bench_cfg(2);
    cfg.chunk_elems = chunk;
    print_result(chunk, sweep(cfg));
  }

  header("(b) prefetch depth (chunks) — §4.2, default 2");
  for (uint32_t pf : {0u, 1u, 2u, 4u, 8u}) {
    rt::ClusterConfig cfg = bench_cfg(2);
    cfg.prefetch_chunks = pf;
    print_result(pf, sweep(cfg));
  }

  header("(c) cache size (lines/region) — watermarks 30%/50%");
  for (uint32_t lines : {8u, 16u, 32u, 64u, 256u}) {
    rt::ClusterConfig cfg = bench_cfg(2);
    cfg.cachelines_per_region = lines;
    print_result(lines, sweep(cfg));
  }

  header("(d) selective signaling interval — §4.5, default 16");
  for (uint32_t sig : {1u, 4u, 16u, 64u}) {
    rt::ClusterConfig cfg = bench_cfg(2);
    cfg.selective_signal_interval = sig;
    print_result(sig, sweep(cfg));
  }

  // Small-message engine (docs/perf.md): per-peer SEND coalescing packs
  // protocol messages into shared wire SENDs, doorbell batching posts runs of
  // WRs with one call, and PayloadBuf keeps Tx/Rx payloads out of the heap.
  std::printf("\n(e) small-message coalescing — docs/perf.md, default 32\n"
              "%-12s%12s%12s%12s%12s%12s%12s\n", "max_frames", "Mops/s", "sends",
              "coalesced", "batchposts", "pool_hits", "pool_miss");
  for (uint32_t frames : {1u, 2u, 8u, 32u}) {  // 1 = one message per wire SEND
    rt::ClusterConfig cfg = bench_cfg(2);
    cfg.coalesce_max_frames = frames;
    const net::PayloadPoolStats before = net::payload_pool_stats();
    const Result r = sweep(cfg);
    const net::PayloadPoolStats after = net::payload_pool_stats();
    std::printf("%-12llu%12.3f%12llu%12llu%12llu%12llu%12llu\n",
                static_cast<unsigned long long>(frames), r.mops,
                static_cast<unsigned long long>(r.fabric.sends),
                static_cast<unsigned long long>(r.fabric.coalesced_frames),
                static_cast<unsigned long long>(r.fabric.batched_posts),
                static_cast<unsigned long long>(after.hits - before.hits),
                static_cast<unsigned long long>(after.misses - before.misses));
    std::fflush(stdout);
  }

  std::printf("\nreading: larger chunks amortise misses until eviction pressure bites;\n"
              "prefetch trades extra fills for fewer demand misses; a cache smaller than\n"
              "the working set turns the sweep into eviction churn; signaling interval 1\n"
              "maximises completion traffic.\n");
  return 0;
}
