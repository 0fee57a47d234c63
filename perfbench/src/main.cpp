// perfbench: one benchmark process runs one named workload.
//
//   perfbench --workload random_miss --seed 1 --seconds 10 --trace 0
//   perfbench --selftest
//
// Prints a host line, diagnostics, and as its last line one JSON object:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced run (--trace 1). Exits 1 when an output is wrong, 2 on bad usage.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  RunOptions opt;
  std::string git_sha = "unknown";
  bool selftest = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload random_miss|ycsb_kvs|pagerank|"
               "bulk_range --seed N --seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA]\n"
               "       perfbench --selftest\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed takes a whole number");
    } else if (k == "--seconds") {
      a.opt.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.opt.seconds >= 0.2 && a.opt.seconds <= 600))
        usage("--seconds takes a number in [0.2, 600]");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.opt.trace = v == "1";
    } else if (k == "--out-dir") {
      a.opt.out_dir = v;
    } else if (k == "--git-sha") {
      a.git_sha = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const size_t c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  return "unknown";
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o + "\"";
}

std::string num(double v) {
  char b[64];
  std::snprintf(b, sizeof b, "%.17g", v);
  return b;
}

void print_host(const Args& a) {
  std::printf(
      "host: {\"cpu\": %s, \"nproc\": %ld, \"build_type\": %s, \"compiler\": %s, "
      "\"git_sha\": %s, \"fabric_latency_ns\": %llu, "
      "\"fabric_ns_per_byte\": %s, \"nodes\": %u, \"workload\": %s, \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d}\n",
      json_str(cpu_model()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      json_str(PERFBENCH_BUILD_TYPE).c_str(), json_str(std::string("gcc ") + __VERSION__).c_str(),
      json_str(a.git_sha).c_str(),
      static_cast<unsigned long long>(kFabricLatencyNs), num(kFabricNsPerByte).c_str(), kNodes,
      json_str(a.workload).c_str(), static_cast<unsigned long long>(a.opt.seed),
      num(a.opt.seconds).c_str(), a.opt.trace ? 1 : 0);
}

// Length of the traced run that stands in for a layer the running workload
// does not call.
constexpr double kStandInSeconds = 2;

// When the workload did not measure `key`, a short traced run of the
// workload that calls that layer fills in every metric still unset. Its
// operations are not this run's; its checks and cross-checks still count.
void fill_from(Report& r, const char* key, Report (*run)(const RunOptions&),
               const RunOptions& opt) {
  if (r.has(key)) return;
  RunOptions o = opt;
  o.seconds = kStandInSeconds;
  o.out_dir.clear();
  const Report s = run(o);
  for (const auto& e : s.errors) r.error(e);
  for (const Metric& m : s.metrics)
    if (!r.has(m.name)) r.set(m.name, m.value, m.unit);
  r.notes.push_back(std::string("metrics without ") + key + " filled from a " +
                    std::to_string(static_cast<int>(kStandInSeconds)) +
                    " s traced run of the workload that measures it");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse(argc, argv);
  if (a.selftest) return run_selftest() == 0 ? 0 : 1;

  Report (*run)(const RunOptions&) = nullptr;
  if (a.workload == "random_miss") run = run_random_miss;
  if (a.workload == "ycsb_kvs") run = run_ycsb_kvs;
  if (a.workload == "pagerank") run = run_pagerank;
  if (a.workload == "bulk_range") run = run_bulk_range;
  if (run == nullptr) usage(("unknown workload '" + a.workload + "'").c_str());

  const uint64_t t_start = now_ns();
  print_host(a);
  std::fflush(stdout);

  Report r = run(a.opt);
  if (a.opt.trace) {
    Tracer probe_spans;
    add_comm_probes(r, &probe_spans);
    write_spans(r, a.opt, probe_spans, a.workload + "-probes");
    fill_from(r, "core.get_miss_p50_us", run_random_miss, a.opt);
    fill_from(r, "core.range_p50_us", run_bulk_range, a.opt);
    fill_from(r, "kvs.get_p50_us", run_ycsb_kvs, a.opt);
    add_budget_metrics(r);
  }

  // Report exactly the metric set of the mode, in BENCHMARK.json order.
  static const std::vector<std::string> e2e = {"ops_per_s", "op_p50_us", "op_p99_us", "setup_s",
                                               "peak_rss_mb"};
  const std::vector<std::string>& names = a.opt.trace ? per_layer_names() : e2e;
  std::string metrics;
  for (const std::string& n : names) {
    const Metric* m = nullptr;
    for (const Metric& x : r.metrics)
      if (x.name == n) m = &x;
    if (m == nullptr || !std::isfinite(m->value)) {
      r.error("metric " + n + " was not measured");
      continue;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += json_str(n) + ": {\"value\": " + num(m->value) + ", \"unit\": " +
               json_str(m->unit) + "}";
  }
  if (r.attempted == 0) r.error("no operation was attempted");

  const Usage u = Usage::now();
  for (const std::string& n : r.notes) std::printf("%s\n", n.c_str());
  std::printf("rusage: wall_s %.3f user_s %.3f sys_s %.3f max_rss_mib %.1f vol_cs %llu "
              "invol_cs %llu\n",
              static_cast<double>(now_ns() - t_start) / 1e9, u.user_s, u.sys_s, u.max_rss_mib,
              static_cast<unsigned long long>(u.vol_cs),
              static_cast<unsigned long long>(u.invol_cs));
  for (const std::string& e : r.errors) std::fprintf(stderr, "perfbench: WRONG: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
