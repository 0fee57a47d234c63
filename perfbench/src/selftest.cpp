// Self-test of the correctness checkers: each one must accept a valid result
// and reject a deliberately corrupted one. Run with `perfbench --selftest`.
#include <cstdio>
#include <memory>

#include "checks.hpp"
#include "graph/pagerank.hpp"
#include "graph/reference.hpp"
#include "graph/rmat.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Tally {
  int bad = 0;
  void expect(const char* checker, const char* what, bool should_pass, const std::string& err) {
    const bool passed = err.empty();
    const bool ok = passed == should_pass;
    std::printf("selftest %-12s %-44s %s%s%s\n", checker, what,
                passed ? "accepted" : "rejected", ok ? "" : "  <-- WRONG",
                err.empty() ? "" : ("  (" + err + ")").c_str());
    if (!ok) ++bad;
  }
};

}  // namespace

int run_selftest() {
  Tally t;
  using namespace check;

  // read_error: own index, a version the writer issued, never backward.
  {
    uint32_t last = 3;
    t.expect("read", "valid read", true, read_error(42, encode(42, 5), 7, last));
    last = 3;
    t.expect("read", "value of another element", false, read_error(42, encode(43, 5), 7, last));
    last = 3;
    t.expect("read", "version never issued", false, read_error(42, encode(42, 8), 7, last));
    last = 6;
    t.expect("read", "version went backward", false, read_error(42, encode(42, 5), 7, last));
    last = 3;
    t.expect("read", "writer missed its own write", false,
             read_error(42, encode(42, 5), 7, last, true));
  }

  // final_error: the generator's last write.
  t.expect("final", "last write present", true, final_error(9, encode(9, 4), 4));
  t.expect("final", "stale final value", false, final_error(9, encode(9, 3), 4));

  // apply_error: conservation, in total and per counter.
  {
    const std::vector<uint64_t> issued = {3, 0, 5, 2};
    t.expect("apply", "counters match applies", true, apply_error({3, 0, 5, 2}, issued));
    t.expect("apply", "one apply lost", false, apply_error({3, 0, 4, 2}, issued));
    t.expect("apply", "same sum, wrong element", false, apply_error({2, 1, 5, 2}, issued));
  }

  // range_error: one whole chunk, one version.
  {
    const uint64_t first = 16;
    std::vector<uint64_t> chunk(8);
    for (uint64_t k = 0; k < chunk.size(); ++k) chunk[k] = encode(first + k, 2);
    uint32_t last = 0;
    t.expect("range", "valid chunk read", true,
             range_error(first, chunk.data(), chunk.size(), 2, last));
    auto torn = chunk;
    torn[3] = encode(first + 3, 1);
    last = 0;
    t.expect("range", "chunk mixes two versions", false,
             range_error(first, torn.data(), torn.size(), 2, last));
    auto shifted = chunk;
    shifted[5] = encode(first + 6, 2);
    last = 0;
    t.expect("range", "element from another index", false,
             range_error(first, shifted.data(), shifted.size(), 2, last));
    last = 0;
    t.expect("range", "version never issued", false,
             range_error(first, chunk.data(), chunk.size(), 1, last));
  }

  // kv_read_error: own key, issued version, never backward, intact filler.
  {
    const size_t vb = 100;
    uint32_t last = 1;
    t.expect("kv", "valid value", true, kv_read_error(7, kv_value(7, 2, vb), vb, 2, last));
    last = 1;
    t.expect("kv", "value of another key", false,
             kv_read_error(7, kv_value(8, 2, vb), vb, 2, last));
    last = 1;
    t.expect("kv", "version never issued", false,
             kv_read_error(7, kv_value(7, 3, vb), vb, 2, last));
    last = 2;
    t.expect("kv", "version went backward", false,
             kv_read_error(7, kv_value(7, 1, vb), vb, 2, last));
    std::string torn = kv_value(7, 2, vb);
    torn[vb - 1] ^= 1;
    last = 1;
    t.expect("kv", "torn value", false, kv_read_error(7, torn, vb, 2, last));
    last = 1;
    t.expect("kv", "truncated value", false,
             kv_read_error(7, kv_value(7, 2, vb).substr(0, vb - 1), vb, 2, last));
  }

  // rank_error: a real distributed solve passes; one perturbed rank fails.
  {
    darray::graph::RmatParams rp;
    rp.scale = 10;
    rp.edge_factor = 8;
    const auto g = darray::graph::rmat_graph(rp);
    const auto ref = darray::graph::pagerank_reference(g, 10);
    darray::rt::Cluster cluster(base_config());
    darray::graph::GraphRunOptions opt;
    opt.iterations = 10;
    const auto got = darray::graph::pagerank_darray(cluster, g, opt);
    t.expect("rank", "distributed solve vs reference", true, rank_error(got, ref));
    auto bent = got;
    bent[bent.size() / 2] *= 1 + 1e-6;
    t.expect("rank", "one rank off by 1e-6", false, rank_error(bent, ref));
    t.expect("rank", "rank vector one short", false,
             rank_error(std::vector<double>(got.begin(), got.end() - 1), ref));
  }

  std::printf("selftest: %d checker case(s) wrong\n", t.bad);
  return t.bad;
}

}  // namespace perfbench
