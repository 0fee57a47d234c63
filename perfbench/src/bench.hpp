// Shared pieces of the perfbench binary: the fixed cluster and fabric model,
// latency histograms, the span recorder of the traced run, per-process
// resource usage, and the metric list every workload fills in.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/histogram.hpp"
#include "obs/stats_registry.hpp"

namespace perfbench {

// --- fixed inputs shared by every workload -----------------------------------

// Fabric model: 1 µs one-way latency (about 2 µs RTT, the paper's testbed) and
// 0.08 ns per byte (100 Gb/s). Recorded in the README and in every run's host
// line.
inline constexpr uint64_t kFabricLatencyNs = 1000;
inline constexpr double kFabricNsPerByte = 0.08;

// Four simulated nodes, one application (or client) thread per node: the load
// never uses more threads than the 4 vCPUs of the reference host.
inline constexpr uint32_t kNodes = 4;

inline darray::ClusterConfig base_config() {
  darray::ClusterConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.fabric_latency_ns = kFabricLatencyNs;
  cfg.fabric_ns_per_byte = kFabricNsPerByte;
  return cfg;
}

using darray::now_ns;

// Stable per-purpose RNG seed derived from the workload seed.
inline uint64_t mix_seed(uint64_t seed, uint64_t a, uint64_t b = 0) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + a * 0xbf58476d1ce4e5b9ull + b * 0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- latency histogram ---------------------------------------------------------

// Log-linear histogram of nanosecond samples: 256 sub-buckets per power of two
// (bucket width <= 0.4 %), fixed memory, so recording costs no allocation and
// the process footprint does not grow with the run's throughput. Percentiles
// interpolate linearly inside the bucket that holds the rank. Not
// darray::LatencyHistogram: its 1/16-octave buckets (about 4 % wide) report
// a bucket's upper bound, so a percentile could only take a few values
// across runs, coarser than the spreads the benchmark resolves.
class Hist {
 public:
  static constexpr int kSubBits = 8;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;

  Hist() : counts_(64 * kSub, 0) {}

  void record(uint64_t ns) {
    ++counts_[index(ns)];
    ++n_;
  }
  void merge(const Hist& o) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }
  uint64_t count() const { return n_; }

  // Value at quantile q in [0, 1], in nanoseconds (0 when empty).
  double quantile(double q) const {
    if (n_ == 0) return 0;
    const double rank = q * static_cast<double>(n_ - 1);
    uint64_t seen = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      if (static_cast<double>(seen + counts_[i]) > rank) {
        const double lo = lower(i), hi = lower(i + 1);
        const double frac = (rank - static_cast<double>(seen) + 0.5) /
                            static_cast<double>(counts_[i]);
        return lo + (hi - lo) * std::min(1.0, frac);
      }
      seen += counts_[i];
    }
    return lower(counts_.size() - 1);
  }

 private:
  static size_t index(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    return static_cast<size_t>((shift + 1) * kSub + ((v >> shift) & (kSub - 1)));
  }
  static double lower(size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const uint64_t shift = i / kSub - 1;
    const uint64_t sub = i % kSub;
    return std::ldexp(static_cast<double>(kSub + sub), static_cast<int>(shift));
  }

  std::vector<uint64_t> counts_;
  uint64_t n_ = 0;
};

// --- timed phases -----------------------------------------------------------------

// Latencies and completions of one timed phase, cut into windows of about one
// second by completion time. The end-to-end metrics are medians over the
// windows, so a short stall of the host moves one window, not the result.
class PhaseRec {
 public:
  PhaseRec() = default;
  PhaseRec(uint64_t start_ns, uint64_t duration_ns) : start_(start_ns) {
    const uint64_t n = std::max<uint64_t>(1, (duration_ns + 500'000'000) / 1'000'000'000);
    window_ns_ = std::max<uint64_t>(1, duration_ns / n);
    lat_.resize(n);
    ops_.assign(n, 0);
  }

  void record(uint64_t t0, uint64_t t1) {
    all_.record(t1 - t0);
    const size_t w = std::min<size_t>(lat_.size() - 1, (t1 - start_) / window_ns_);
    lat_[w].record(t1 - t0);
    ++ops_[w];
  }
  void merge(const PhaseRec& o) {
    all_.merge(o.all_);
    for (size_t w = 0; w < lat_.size() && w < o.lat_.size(); ++w) {
      lat_[w].merge(o.lat_[w]);
      ops_[w] += o.ops_[w];
    }
  }

  const Hist& all() const { return all_; }
  uint64_t ops() const { return all_.count(); }
  size_t windows() const { return lat_.size(); }

  // Completions per second of each window.
  std::vector<double> rates() const {
    std::vector<double> v;
    for (uint64_t n : ops_)
      v.push_back(static_cast<double>(n) * 1e9 / static_cast<double>(window_ns_));
    return v;
  }
  double median_rate() const { return median(rates()); }
  // Median over windows of the window's latency quantile q, in ns.
  double median_quantile(double q) const {
    std::vector<double> v;
    for (const Hist& h : lat_)
      if (h.count() > 0) v.push_back(h.quantile(q));
    return median(v);
  }

 private:
  static double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
  }

  uint64_t start_ = 0;
  uint64_t window_ns_ = 1;
  Hist all_;
  std::vector<Hist> lat_;
  std::vector<uint64_t> ops_;
};

// The common start of a phase: the first thread released by the start
// barrier stamps it, every thread reads the same value.
class PhaseClock {
 public:
  uint64_t start() {
    uint64_t expected = 0;
    const uint64_t now = now_ns();
    t_.compare_exchange_strong(expected, now);
    return t_.load();
  }

 private:
  std::atomic<uint64_t> t_{0};
};

// --- spans of the traced run ---------------------------------------------------

// One span around a call into a module's public API, recorded by the
// benchmark's own code. Spans of one application operation share `req`;
// `parent` is the id of the enclosing span (0 for a root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t req = 0;
  const char* name = "";
  uint64_t t0 = 0;
  uint64_t t1 = 0;
};

// Per-thread span buffer with a fixed capacity: spans past it are counted,
// not kept, so a long traced run cannot grow without bound. All buffers are
// written out once, when the run ends.
class SpanBuf {
 public:
  static constexpr size_t kCap = 1 << 16;

  SpanBuf() { spans_.reserve(kCap); }

  // Ids are unique per process: the thread slot in the high bits.
  void set_slot(uint32_t slot) { base_ = uint64_t{slot + 1} << 40; }

  uint64_t begin_id() { return base_ | ++next_; }
  void add(uint64_t id, uint64_t parent, uint64_t req, const char* name, uint64_t t0,
           uint64_t t1) {
    if (spans_.size() < kCap)
      spans_.push_back({id, parent, req, name, t0, t1});
    else
      ++dropped_;
  }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  uint64_t base_ = 0;
  uint64_t next_ = 0;
  uint64_t dropped_ = 0;
};

// Collects every thread's SpanBuf of one traced run.
class Tracer {
 public:
  SpanBuf& thread_buf(uint32_t slot) {
    std::lock_guard lk(mu_);
    bufs_.push_back(std::make_unique<SpanBuf>());
    bufs_.back()->set_slot(slot);
    return *bufs_.back();
  }
  uint64_t span_count() const {
    uint64_t n = 0;
    for (const auto& b : bufs_) n += b->spans().size();
    return n;
  }
  uint64_t dropped() const {
    uint64_t n = 0;
    for (const auto& b : bufs_) n += b->dropped();
    return n;
  }
  // CSV: id,parent,req,name,start_ns,end_ns. Returns false on I/O failure.
  bool write_csv(const std::string& path) const;

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuf>> bufs_;
};

// --- resource usage ---------------------------------------------------------------

struct Usage {
  double user_s = 0, sys_s = 0;
  uint64_t vol_cs = 0, invol_cs = 0;
  double max_rss_mib = 0;

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6;
    u.vol_cs = static_cast<uint64_t>(ru.ru_nvcsw);
    u.invol_cs = static_cast<uint64_t>(ru.ru_nivcsw);
    u.max_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
    return u;
  }
};

// --- metrics -----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one invocation reports: the result line's fields plus diagnostics.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // first few correctness failures
  std::vector<std::string> notes;   // extra lines printed before the result

  void error(std::string msg) {
    correct = false;
    if (errors.size() < 20) errors.push_back(std::move(msg));
  }
  void set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics)
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    metrics.push_back({name, value, unit});
  }
  bool has(const std::string& name) const {
    for (const Metric& m : metrics)
      if (m.name == name) return true;
    return false;
  }
};

// Counter delta helper over a StatsSnapshot.
inline double stat(const darray::obs::StatsSnapshot& s, const char* name) {
  return static_cast<double>(s.value_or(name, 0));
}

inline double safe_div(double a, double b) { return b != 0 ? a / b : 0; }

// Options shared by every workload.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // where the traced run writes its spans
};

}  // namespace perfbench
