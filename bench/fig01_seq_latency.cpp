// Figure 1: average latency of 8-byte sequential access over the entire
// array, on a single machine and on a distributed cluster, for BCL, GAM,
// DArray and DArray-Pin.
//
// Paper shape to reproduce: distributed BCL ≈ RDMA round trip (no cache);
// GAM well below BCL (cache) but above DArray (locked access path); DArray-Pin
// lowest (atomic-free fast path). On a single machine BCL/DArray are near
// native while GAM pays its lock.
#include "bench/bench_util.hpp"
#include "baselines/bcl/bcl_array.hpp"
#include "baselines/gam/gam_array.hpp"
#include "core/darray.hpp"

using namespace darray;
using namespace darray::bench;

namespace {

double darray_seq_ns(uint32_t nodes, bool use_pin) {
  rt::Cluster cluster(bench_cfg(nodes));
  const uint64_t total = elems_per_node() * nodes;
  auto arr = DArray<uint64_t>::create(cluster, total);
  const uint32_t chunk = arr.meta().chunk_elems;
  return measure_avg_ns(cluster, total, [&](rt::NodeId, uint64_t i) {
    if (use_pin && i % chunk == 0) {
      if (i > 0) arr.unpin(i - chunk);
      arr.pin(i, PinMode::kRead);
    }
    volatile uint64_t v = arr.get(i);
    (void)v;
    if (use_pin && i + 1 == total) arr.unpin(i - i % chunk);
  });
}

double gam_seq_ns(uint32_t nodes) {
  rt::Cluster cluster(bench_cfg(nodes));
  const uint64_t total = elems_per_node() * nodes;
  auto arr = gam::GamArray<uint64_t>::create(cluster, total);
  return measure_avg_ns(cluster, total, [&](rt::NodeId, uint64_t i) {
    volatile uint64_t v = arr.get(i);
    (void)v;
  });
}

double bcl_seq_ns(uint32_t nodes) {
  rt::Cluster cluster(bench_cfg(nodes));
  const uint64_t total = elems_per_node() * nodes;
  auto arr = bcl::BclArray<uint64_t>::create(cluster, total);
  return measure_avg_ns(cluster, total, [&](rt::NodeId, uint64_t i) {
    volatile uint64_t v = arr.get(i);
    (void)v;
  });
}

// --json: record the distributed rows (the only ones the message path can
// move) for both coalesce configs, off (one frame per wire SEND) first as
// the baseline.
int json_main() {
  JsonReport report("fig01_seq_latency", true);
  const uint32_t dist_nodes = max_nodes();
  for (const bool coalesce : {false, true}) {
    setenv("DARRAY_BENCH_COALESCE", coalesce ? "1" : "0", 1);
    const std::string cfg = coalesce ? "coalesce_on" : "coalesce_off";
    report.measure(cfg, "darray_dist_seq", "ns/op",
                   [&] { return darray_seq_ns(dist_nodes, false); });
    report.measure(cfg, "darray_pin_dist_seq", "ns/op",
                   [&] { return darray_seq_ns(dist_nodes, true); });
    report.measure(cfg, "gam_dist_seq", "ns/op", [&] { return gam_seq_ns(dist_nodes); });
  }
  return report.write() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (has_flag(argc, argv, "--json")) return json_main();
  const uint32_t dist_nodes = max_nodes();
  std::printf("=== Figure 1: avg latency of 8-byte sequential access (ns/op) ===\n");
  std::printf("array: %llu elems/node; distributed = %u nodes, 1 thread/node\n",
              static_cast<unsigned long long>(elems_per_node()), dist_nodes);

  struct Row {
    const char* name;
    double single, dist;
  };
  Row rows[] = {
      {"BCL", bcl_seq_ns(1), bcl_seq_ns(dist_nodes)},
      {"GAM", gam_seq_ns(1), gam_seq_ns(dist_nodes)},
      {"DArray", darray_seq_ns(1, false), darray_seq_ns(dist_nodes, false)},
      {"DArray-Pin", darray_seq_ns(1, true), darray_seq_ns(dist_nodes, true)},
  };

  std::printf("\n%-12s%16s%16s\n", "system", "single-node", "distributed");
  for (const Row& r : rows) std::printf("%-12s%16.1f%16.1f\n", r.name, r.single, r.dist);

  std::printf("\nexpected shape: dist BCL >> dist GAM > dist DArray > dist DArray-Pin;\n"
              "single-node GAM pays its per-access lock vs DArray/BCL.\n");
  return 0;
}
