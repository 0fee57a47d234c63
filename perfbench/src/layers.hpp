// Per-layer metrics of the traced run: counter ratios over a timed phase and
// the standalone net and rdma probes.
#pragma once

#include "bench.hpp"

namespace perfbench {

// One timed phase: the denominators of every per-operation ratio.
struct PhaseTotals {
  uint64_t ops = 0;          // application operations completed
  double seconds = 0;        // phase wall time
  uint64_t iterations = 0;   // PageRank iterations (0: use ops)
  Usage u0, u1;              // getrusage at phase start and end
};

// runtime.*, net.* (counter part), rdma.wire_model/software/read_wrs,
// graph.*, proc.* from the Cluster::stats() delta over the phase.
void add_counter_metrics(Report& r, const darray::obs::StatsSnapshot& d, const PhaseTotals& t);

// net.pingpong_p50_us / p99_us: singleton messages between two CommLayers.
// rdma.rtt_p50_us: post -> completion of a signaled 64-byte WRITE.
// Each runs on its own fabric with the benchmark's fabric model.
void add_comm_probes(Report& r, Tracer* tracer);

// core.miss_self_us and net.self_us: the remote-miss budget split. Needs
// core.get_miss_p50_us and the two probes above.
void add_budget_metrics(Report& r);

// Every per-layer metric name, in BENCHMARK.json order.
const std::vector<std::string>& per_layer_names();

}  // namespace perfbench
