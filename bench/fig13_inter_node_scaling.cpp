// Figure 13: sequential (a) Read (b) Write (c) Operate throughput (Mops/s) as
// the node count grows, one thread per node; the array grows linearly with
// the node count (the paper adds 0.78 GB/node; we add DARRAY_BENCH_ELEMS).
//
// Paper shape: DArray scales best (ratios ≈ 0.8), GAM lower (≈ 0.7), BCL flat
// and far below (≈ 0.5). The bench prints the same scalability ratios.
#include "bench/bench_util.hpp"
#include "baselines/bcl/bcl_array.hpp"
#include "baselines/gam/gam_array.hpp"
#include "core/darray.hpp"

using namespace darray;
using namespace darray::bench;

namespace {

void add_fn(uint64_t& a, uint64_t b) { a += b; }
uint64_t add_fn_gam(uint64_t a, uint64_t b) { return a + b; }

enum class Op { kRead, kWrite, kOperate };

double run(const char* system, uint32_t nodes, Op op) {
  rt::Cluster cluster(bench_cfg(nodes));
  const uint64_t total = elems_per_node() * nodes;
  const std::string sys(system);
  if (sys == "darray") {
    auto arr = DArray<uint64_t>::create(cluster, total);
    const auto add = arr.register_op(&add_fn, 0);
    return measure_mops(cluster, 1, total, [&](rt::NodeId, uint32_t, uint64_t i) {
      switch (op) {
        case Op::kRead: {
          volatile uint64_t v = arr.get(i);
          (void)v;
          break;
        }
        case Op::kWrite: arr.set(i, i); break;
        case Op::kOperate: arr.apply(i, add, 1); break;
      }
    });
  }
  if (sys == "gam") {
    auto arr = gam::GamArray<uint64_t>::create(cluster, total);
    return measure_mops(cluster, 1, total, [&](rt::NodeId, uint32_t, uint64_t i) {
      switch (op) {
        case Op::kRead: {
          volatile uint64_t v = arr.get(i);
          (void)v;
          break;
        }
        case Op::kWrite: arr.set(i, i); break;
        case Op::kOperate: arr.atomic_rmw(i, &add_fn_gam, 1); break;
      }
    });
  }
  auto arr = bcl::BclArray<uint64_t>::create(cluster, total);
  const uint64_t ops = std::min<uint64_t>(total, 8192);
  return measure_mops(cluster, 1, ops, [&](rt::NodeId, uint32_t, uint64_t i) {
    if (op == Op::kRead) {
      volatile uint64_t v = arr.get(i);
      (void)v;
    } else {
      arr.set(i, i);
    }
  });
}

void panel(const char* title, Op op, const std::vector<uint64_t>& node_counts) {
  const bool has_bcl = op != Op::kOperate;
  print_header(title, has_bcl ? std::vector<std::string>{"nodes", "DArray", "GAM", "BCL"}
                              : std::vector<std::string>{"nodes", "DArray", "GAM"});
  std::vector<double> d, g, b;
  for (uint64_t n : node_counts) {
    d.push_back(run("darray", static_cast<uint32_t>(n), op));
    g.push_back(run("gam", static_cast<uint32_t>(n), op));
    std::vector<double> row{d.back(), g.back()};
    if (has_bcl) {
      b.push_back(run("bcl", static_cast<uint32_t>(n), op));
      row.push_back(b.back());
    }
    print_row(n, row, "%14.3f");
  }
  std::printf("scalability ratio: DArray %.2f, GAM %.2f", scalability_ratio(node_counts, d),
              scalability_ratio(node_counts, g));
  if (has_bcl) std::printf(", BCL %.2f", scalability_ratio(node_counts, b));
  std::printf("   (paper: DArray .82/.76/.87, GAM .72/.68/.73, BCL .52/.52)\n");
}

// --json: DArray throughput at the largest node count per op, for both
// coalesce configs (off = one frame per wire SEND, first as the baseline).
// The largest point has the most inter-node protocol traffic, so it is where
// coalescing shows.
int json_main() {
  JsonReport report("fig13_inter_node_scaling", true);
  const uint32_t nodes = max_nodes();
  for (const bool coalesce : {false, true}) {
    setenv("DARRAY_BENCH_COALESCE", coalesce ? "1" : "0", 1);
    const std::string cfg = coalesce ? "coalesce_on" : "coalesce_off";
    report.measure(cfg, "darray_read", "Mops/s", [&] { return run("darray", nodes, Op::kRead); });
    report.measure(cfg, "darray_write", "Mops/s",
                   [&] { return run("darray", nodes, Op::kWrite); });
    report.measure(cfg, "darray_operate", "Mops/s",
                   [&] { return run("darray", nodes, Op::kOperate); });
  }
  return report.write() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (has_flag(argc, argv, "--json")) return json_main();
  std::vector<uint64_t> node_counts;
  for (uint64_t n = 1; n <= max_nodes(); ++n) node_counts.push_back(n);

  std::printf("=== Figure 13: sequential throughput vs nodes (Mops/s, 1 thread/node) ===\n");
  std::printf("note: on a host with fewer cores than simulated threads, aggregate\n"
              "throughput is CPU-capacity-bound and cannot grow with node count, so the\n"
              "paper's scalability ratios are not reproducible — the per-point system\n"
              "ordering (DArray > GAM > BCL) is the preserved shape. Run on >= %u cores\n"
              "for meaningful ratios.\n",
              max_nodes() * 3);
  panel("(a) Read", Op::kRead, node_counts);
  panel("(b) Write", Op::kWrite, node_counts);
  panel("(c) Operate", Op::kOperate, node_counts);
  return 0;
}
