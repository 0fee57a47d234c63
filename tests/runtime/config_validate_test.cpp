// ClusterConfig::validate(): defaults pass; each broken knob produces a
// descriptive, non-empty message naming the field.
#include <gtest/gtest.h>

#include "common/config.hpp"
#include "tests/test_util.hpp"

namespace darray::rt {
namespace {

TEST(ConfigValidate, DefaultAndSmallConfigsAreValid) {
  EXPECT_EQ(ClusterConfig{}.validate(), "");
  EXPECT_EQ(darray::testing::small_cfg(2).validate(), "");
  EXPECT_EQ(darray::testing::small_cfg(64).validate(), "");
}

TEST(ConfigValidate, EachBadFieldIsNamedInTheMessage) {
  const auto expect_mentions = [](const ClusterConfig& cfg, const char* field) {
    const std::string err = cfg.validate();
    ASSERT_FALSE(err.empty()) << "expected a complaint about " << field;
    EXPECT_NE(err.find(field), std::string::npos) << "got: " << err;
  };

  ClusterConfig cfg;
  cfg.num_nodes = 0;
  expect_mentions(cfg, "num_nodes");
  cfg = {};
  cfg.num_nodes = 65;
  expect_mentions(cfg, "num_nodes");
  cfg = {};
  cfg.runtime_threads_per_node = 0;
  expect_mentions(cfg, "runtime_threads_per_node");
  cfg = {};
  cfg.chunk_elems = 0;
  expect_mentions(cfg, "chunk_elems");
  cfg = {};
  cfg.cachelines_per_region = 0;
  expect_mentions(cfg, "cachelines_per_region");
  cfg = {};
  cfg.low_watermark = 0.9;
  cfg.high_watermark = 0.5;
  expect_mentions(cfg, "watermark");
  cfg = {};
  cfg.high_watermark = 1.5;
  expect_mentions(cfg, "high_watermark");
  cfg = {};
  cfg.low_watermark = -0.1;
  expect_mentions(cfg, "low_watermark");
  cfg = {};
  cfg.qp_depth = 0;
  expect_mentions(cfg, "qp_depth");
  cfg = {};
  cfg.selective_signal_interval = 0;
  expect_mentions(cfg, "selective_signal_interval");
  cfg = {};
  cfg.selective_signal_interval = cfg.qp_depth + 1;
  expect_mentions(cfg, "selective_signal_interval");
  cfg = {};
  cfg.coalesce_max_frames = 0;
  expect_mentions(cfg, "coalesce_max_frames");
  cfg = {};
  cfg.comm_max_attempts = 0;
  expect_mentions(cfg, "comm_max_attempts");
  cfg = {};
  cfg.comm_backoff_base_ns = cfg.comm_backoff_cap_ns + 1;
  expect_mentions(cfg, "comm_backoff");
  cfg = {};
  cfg.telemetry_enabled = true;
  cfg.telemetry_sample_ns = 500'000;  // below the 1 ms floor
  expect_mentions(cfg, "telemetry_sample_ns");
  cfg = {};
  cfg.telemetry_enabled = true;
  cfg.telemetry_ring_samples = 1;
  expect_mentions(cfg, "telemetry_ring_samples");
  cfg = {};
  cfg.telemetry_serve = true;  // without the sampler
  expect_mentions(cfg, "telemetry_serve");
  cfg = {};
  cfg.profiler_enabled = true;
  cfg.profiler_hz = 0;
  expect_mentions(cfg, "profiler_hz");
  cfg = {};
  cfg.profiler_enabled = true;
  cfg.profiler_hz = 2000;  // above the 1 kHz handler-overhead ceiling
  expect_mentions(cfg, "profiler_hz");
  cfg = {};
  cfg.profiler_enabled = true;
  cfg.profiler_max_frames = 1;
  expect_mentions(cfg, "profiler_max_frames");
  cfg = {};
  cfg.profiler_enabled = true;
  cfg.profiler_max_frames = 65;
  expect_mentions(cfg, "profiler_max_frames");
  cfg = {};
  cfg.profiler_enabled = true;
  cfg.profiler_ring_samples = 8;  // wraps within one aggregation interval
  expect_mentions(cfg, "profiler_ring_samples");
}

TEST(ConfigValidate, ProfilerKnobsOnlyCheckedWhenEnabled) {
  ClusterConfig cfg;
  cfg.profiler_hz = 0;  // ignored while the profiler is off
  cfg.profiler_max_frames = 0;
  cfg.profiler_ring_samples = 0;
  EXPECT_EQ(cfg.validate(), "");
  cfg.profiler_enabled = true;
  EXPECT_NE(cfg.validate(), "");
}

TEST(ConfigValidate, TelemetryKnobsOnlyCheckedWhenEnabled) {
  ClusterConfig cfg;
  cfg.telemetry_sample_ns = 0;  // ignored while telemetry is off
  cfg.telemetry_ring_samples = 0;
  EXPECT_EQ(cfg.validate(), "");
  cfg.telemetry_enabled = true;
  EXPECT_NE(cfg.validate(), "");
}

TEST(ConfigValidate, ReportsTheFirstProblemOnly) {
  ClusterConfig cfg;
  cfg.num_nodes = 0;
  cfg.qp_depth = 0;
  const std::string err = cfg.validate();
  EXPECT_NE(err.find("num_nodes"), std::string::npos) << "got: " << err;
  EXPECT_EQ(err.find("qp_depth"), std::string::npos) << "got: " << err;
}

}  // namespace
}  // namespace darray::rt
