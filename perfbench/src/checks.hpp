// Correctness checkers. Each compares what the program returned with a value
// computed apart from it, or with a property every correct run must have; none
// compares with a stored snapshot of earlier output. They are plain functions
// so the self-test (selftest.cpp) can feed each one a corrupted result.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench::check {

// --- versioned elements (random_miss, bulk_range) -----------------------------
//
// Every element holds (index << 24) | version. Each element has exactly one
// writer thread, which issues versions 1, 2, 3, ... in order; version 0 is the
// initial load.

inline constexpr int kVersionBits = 24;
inline constexpr uint64_t kVersionMask = (uint64_t{1} << kVersionBits) - 1;

inline uint64_t encode(uint64_t index, uint32_t version) {
  return (index << kVersionBits) | version;
}
inline uint64_t index_of(uint64_t v) { return v >> kVersionBits; }
inline uint32_t version_of(uint64_t v) { return static_cast<uint32_t>(v & kVersionMask); }

// One read of element `index` that returned `value`. `issued` is the highest
// version the element's writer had issued when the read returned;
// `last_seen` is this reader's previous version for the element (updated).
// `own` marks a read by the element's writer, which must see its own last
// write. Returns an empty string when the read is valid.
inline std::string read_error(uint64_t index, uint64_t value, uint32_t issued,
                              uint32_t& last_seen, bool own = false) {
  if (index_of(value) != index)
    return "element " + std::to_string(index) + " decoded to index " +
           std::to_string(index_of(value));
  const uint32_t v = version_of(value);
  if (v > issued)
    return "element " + std::to_string(index) + " returned version " + std::to_string(v) +
           " but its writer had issued only " + std::to_string(issued);
  if (v < last_seen)
    return "element " + std::to_string(index) + " went back from version " +
           std::to_string(last_seen) + " to " + std::to_string(v);
  if (own && v != issued)
    return "writer of element " + std::to_string(index) + " read version " +
           std::to_string(v) + " after writing " + std::to_string(issued);
  last_seen = v;
  return {};
}

// Final state: the element must hold its writer's last version.
inline std::string final_error(uint64_t index, uint64_t value, uint32_t last_issued) {
  if (value != encode(index, last_issued))
    return "element " + std::to_string(index) + " ends as index " +
           std::to_string(index_of(value)) + " version " + std::to_string(version_of(value)) +
           ", expected version " + std::to_string(last_issued);
  return {};
}

// Operate conservation: the counters must add up to the applies issued, and
// each counter must equal the applies issued to it.
inline std::string apply_error(const std::vector<uint64_t>& counters,
                               const std::vector<uint64_t>& issued) {
  if (counters.size() != issued.size()) return "counter array size mismatch";
  uint64_t sum_c = 0, sum_i = 0;
  for (size_t i = 0; i < counters.size(); ++i) {
    sum_c += counters[i];
    sum_i += issued[i];
  }
  if (sum_c != sum_i)
    return "apply counters sum to " + std::to_string(sum_c) + " but " +
           std::to_string(sum_i) + " applies were issued";
  for (size_t i = 0; i < counters.size(); ++i)
    if (counters[i] != issued[i])
      return "counter " + std::to_string(i) + " is " + std::to_string(counters[i]) +
             " after " + std::to_string(issued[i]) + " applies";
  return {};
}

// A range read of one whole chunk starting at `first`: every element decodes
// to its own index, all carry the same version (ranges are atomic per chunk),
// and that version passes read_error.
inline std::string range_error(uint64_t first, const uint64_t* data, uint64_t count,
                               uint32_t issued, uint32_t& last_seen, bool own = false) {
  const uint32_t v = version_of(data[0]);
  for (uint64_t k = 0; k < count; ++k) {
    if (index_of(data[k]) != first + k)
      return "range element " + std::to_string(first + k) + " decoded to index " +
             std::to_string(index_of(data[k]));
    if (version_of(data[k]) != v)
      return "chunk at element " + std::to_string(first) + " mixes versions " +
             std::to_string(v) + " and " + std::to_string(version_of(data[k]));
  }
  return read_error(first, data[0], issued, last_seen, own);
}

// --- KVS values (ycsb_kvs) ------------------------------------------------------
//
// A value names its key id and version, then pads to the value size with a
// filler derived from both, so a value from another key or a torn value does
// not decode.

inline std::string kv_value(uint64_t key, uint32_t version, size_t bytes) {
  std::string v = "k" + std::to_string(key) + ".v" + std::to_string(version) + ".";
  const char fill = static_cast<char>('a' + (key * 7 + version) % 26);
  if (v.size() < bytes) v.append(bytes - v.size(), fill);
  return v;
}

struct KvDecoded {
  uint64_t key = 0;
  uint32_t version = 0;
};

inline std::optional<KvDecoded> kv_decode(std::string_view s, size_t bytes) {
  if (s.size() != bytes || s.empty() || s[0] != 'k') return std::nullopt;
  const size_t dot = s.find(".v");
  if (dot == std::string_view::npos || dot < 2) return std::nullopt;
  const size_t end = s.find('.', dot + 2);
  if (end == std::string_view::npos || end == dot + 2) return std::nullopt;
  KvDecoded d;
  for (size_t i = 1; i < dot; ++i) {
    if (s[i] < '0' || s[i] > '9') return std::nullopt;
    d.key = d.key * 10 + static_cast<uint64_t>(s[i] - '0');
  }
  for (size_t i = dot + 2; i < end; ++i) {
    if (s[i] < '0' || s[i] > '9') return std::nullopt;
    d.version = d.version * 10 + static_cast<uint32_t>(s[i] - '0');
  }
  if (kv_value(d.key, d.version, bytes) != s) return std::nullopt;
  return d;
}

// One get of `key` that returned `value`; same three properties as
// read_error: its own key, a version its writer issued, never backward.
inline std::string kv_read_error(uint64_t key, std::string_view value, size_t bytes,
                                 uint32_t issued, uint32_t& last_seen) {
  const auto d = kv_decode(value, bytes);
  if (!d) return "key " + std::to_string(key) + " returned an undecodable value";
  if (d->key != key)
    return "key " + std::to_string(key) + " returned the value of key " + std::to_string(d->key);
  if (d->version > issued)
    return "key " + std::to_string(key) + " returned version " + std::to_string(d->version) +
           " but its writer had issued only " + std::to_string(issued);
  if (d->version < last_seen)
    return "key " + std::to_string(key) + " went back from version " +
           std::to_string(last_seen) + " to " + std::to_string(d->version);
  last_seen = d->version;
  return {};
}

// --- PageRank (pagerank) -----------------------------------------------------------
//
// The distributed ranks must match the serial reference within a relative
// tolerance: combine buffers change the order of floating-point additions,
// nothing else.
inline constexpr double kRankRelTol = 1e-9;

inline std::string rank_error(const std::vector<double>& got, const std::vector<double>& ref) {
  if (got.size() != ref.size()) return "rank vector has the wrong length";
  for (size_t v = 0; v < got.size(); ++v) {
    const double err = std::fabs(got[v] - ref[v]);
    if (!(err <= kRankRelTol * std::fabs(ref[v]) + 1e-15))
      return "rank of vertex " + std::to_string(v) + " is " + std::to_string(got[v]) +
             ", reference " + std::to_string(ref[v]);
  }
  return {};
}

}  // namespace perfbench::check
