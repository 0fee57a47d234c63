// The four workloads. Each entry point builds its inputs from opt.seed, times
// the program's set-up, runs a closed loop for opt.seconds, checks the
// outputs, and fills the Report: end-to-end metrics with opt.trace off, the
// per-layer metrics with it on.
#pragma once

#include <thread>

#include "bench.hpp"
#include "common/barrier.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"

namespace perfbench {

Report run_random_miss(const RunOptions& opt);
Report run_ycsb_kvs(const RunOptions& opt);
Report run_pagerank(const RunOptions& opt);
Report run_bulk_range(const RunOptions& opt);

// Feeds every checker in checks.hpp a valid and a corrupted result; returns
// the number of checkers that accepted the corrupted one (or rejected the
// valid one).
int run_selftest();

// --- helpers shared by the workload files ------------------------------------

// Warm-up before the timed phase: caches fill and lazy set-up finishes.
inline double warmup_seconds(double seconds) { return std::min(0.5, seconds / 10); }

// End-to-end metrics of one untraced timed phase: medians over its windows.
inline void set_e2e(Report& r, const PhaseRec& rec, double setup_s) {
  r.set("ops_per_s", rec.median_rate(), "ops/s");
  r.set("op_p50_us", rec.median_quantile(0.50) / 1e3, "us");
  r.set("op_p99_us", rec.median_quantile(0.99) / 1e3, "us");
  r.set("setup_s", setup_s, "s");
  r.set("peak_rss_mb", Usage::now().max_rss_mib, "MiB");
  r.notes.push_back("samples: " + std::to_string(rec.ops()) + " latencies in " +
                    std::to_string(rec.windows()) + " windows, about " +
                    std::to_string(rec.ops() / rec.windows() / 100) +
                    " beyond p99 per window");
  std::string w = "window ops/s:";
  for (double x : rec.rates()) w += " " + std::to_string(static_cast<uint64_t>(x));
  r.notes.push_back(w);
}

// bench.trace_overhead_frac: share of untraced throughput the traced phase lost.
inline void set_trace_overhead(Report& r, double untraced_ops_per_s, double traced_ops_per_s) {
  r.set("bench.trace_overhead_frac", 1.0 - safe_div(traced_ops_per_s, untraced_ops_per_s),
        "fraction");
}

// A cross-check between two totals reached by independent paths. `tol` is the
// allowed |a - b| as a share of b (0: exact).
inline void cross_check(Report& r, const std::string& what, double a, double b, double tol) {
  const double diff = std::fabs(a - b);
  const bool ok = diff <= tol * std::fabs(b);
  r.notes.push_back("cross-check " + what + ": " + std::to_string(a) + " vs " +
                    std::to_string(b) + (ok ? " ok" : " FAILED"));
  if (!ok) r.error("cross-check failed: " + what);
}

// A cross-check that one total bounds another from above: a >= b.
inline void at_least(Report& r, const std::string& what, double a, double b) {
  const bool ok = a >= b;
  r.notes.push_back("cross-check " + what + ": " + std::to_string(a) + " >= " +
                    std::to_string(b) + (ok ? " ok" : " FAILED"));
  if (!ok) r.error("cross-check failed: " + what);
}

// One closed-loop phase on `threads` threads. Thread t first calls
// `init(t)` (bind to a node, open a session), then all start together and
// run `loop(t, ctx, deadline_ns, out)` with ctx the value init returned and
// out.rec already covering the phase. Out has `rec`, `ops`, `seconds` and
// merge(const Out&) for the counters beyond the latency record.
template <class Out, class Init, class Loop>
Out closed_loop(uint32_t threads, uint64_t duration_ns, Init init, Loop loop) {
  darray::SenseBarrier barrier(threads);
  PhaseClock clock;
  std::vector<uint64_t> ends(threads);
  std::vector<Out> outs(threads);
  std::vector<std::thread> ts;
  for (uint32_t t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      auto ctx = init(t);
      barrier.arrive_and_wait();
      const uint64_t start = clock.start();
      outs[t].rec = PhaseRec(start, duration_ns);
      loop(t, ctx, start + duration_ns, outs[t]);
      ends[t] = now_ns();
    });
  }
  for (auto& th : ts) th.join();
  Out out;
  out.rec = PhaseRec(clock.start(), duration_ns);
  for (const Out& o : outs) {
    out.merge(o);
    out.rec.merge(o.rec);
  }
  out.ops = out.rec.ops();
  out.seconds =
      static_cast<double>(*std::max_element(ends.begin(), ends.end()) - clock.start()) / 1e9;
  return out;
}

// Writes a traced run's spans to <out_dir>/spans-<name>.csv (when an output
// directory was given) and notes how many were kept.
inline void write_spans(Report& r, const RunOptions& opt, const Tracer& tracer,
                        const std::string& name) {
  if (!opt.out_dir.empty() && !tracer.write_csv(opt.out_dir + "/spans-" + name + ".csv"))
    r.notes.push_back("spans: could not write spans-" + name + ".csv");
  r.notes.push_back("spans " + name + ": " + std::to_string(tracer.span_count()) + " kept, " +
                    std::to_string(tracer.dropped()) + " over the buffer cap");
}

// The traced half of a --trace 1 run. `phase(tracer, tot)` runs the phase,
// sets tot.ops and tot.seconds (and tot.iterations), and returns the
// Cluster::stats() delta over it; it runs with the program's tracing on and
// between two getrusage snapshots. Sets the counter metrics and the trace
// overhead against the untraced half, writes the spans, and returns the
// delta for the workload's cross-checks.
template <class Phase>
darray::obs::StatsSnapshot traced_phase(Report& r, const RunOptions& opt, const char* workload,
                                        double untraced_ops_per_s, Phase phase) {
  Tracer tracer;
  PhaseTotals tot;
  darray::obs::set_tracing(true);
  tot.u0 = Usage::now();
  darray::obs::StatsSnapshot d = phase(tracer, tot);
  tot.u1 = Usage::now();
  darray::obs::set_tracing(false);
  add_counter_metrics(r, d, tot);
  set_trace_overhead(r, untraced_ops_per_s, safe_div(static_cast<double>(tot.ops), tot.seconds));
  write_spans(r, opt, tracer, workload);
  return d;
}

}  // namespace perfbench
