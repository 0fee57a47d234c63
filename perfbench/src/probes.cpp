#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "layers.hpp"
#include "net/comm_layer.hpp"
#include "rdma/fabric.hpp"

namespace perfbench {

namespace dr = darray::rdma;
namespace dn = darray::net;

bool Tracer::write_csv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,req,name,start_ns,end_ns\n");
  for (const auto& b : bufs_)
    for (const Span& s : b->spans())
      std::fprintf(f, "%llu,%llu,%llu,%s,%llu,%llu\n", static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.req), s.name,
                   static_cast<unsigned long long>(s.t0), static_cast<unsigned long long>(s.t1));
  return std::fclose(f) == 0;
}

void add_counter_metrics(Report& r, const darray::obs::StatsSnapshot& d, const PhaseTotals& t) {
  const double ops = static_cast<double>(t.ops);
  const double iters = t.iterations ? static_cast<double>(t.iterations) : ops;
  const double sends = stat(d, "fabric.sends");
  const double writes = stat(d, "fabric.writes");
  const double reads = stat(d, "fabric.reads");
  const double bytes =
      stat(d, "fabric.bytes_sent") + stat(d, "fabric.bytes_written") + stat(d, "fabric.bytes_read");
  auto busy = [&](const char* prefix) {
    const double b = stat(d, (std::string(prefix) + ".busy_ns").c_str());
    const double i = stat(d, (std::string(prefix) + ".idle_ns").c_str());
    return safe_div(b, b + i);
  };

  r.set("runtime.remote_reqs_per_op", safe_div(stat(d, "runtime.remote_reqs"), ops), "1/op");
  r.set("runtime.invalidations_per_op", safe_div(stat(d, "runtime.invalidations"), ops), "1/op");
  r.set("runtime.evictions_per_op",
        safe_div(stat(d, "runtime.evict_clean") + stat(d, "runtime.evict_writeback") +
                     stat(d, "runtime.evict_opflush"),
                 ops),
        "1/op");
  r.set("runtime.combine_flushes_per_iter", safe_div(stat(d, "runtime.combine_flushes"), iters),
        "1/iter");
  r.set("runtime.busy_frac", busy("duty.runtime"), "fraction");

  r.set("net.msgs_per_op", safe_div(sends, ops), "1/op");
  r.set("net.bytes_per_op", safe_div(bytes, ops), "B/op");
  r.set("net.frames_per_send", safe_div(stat(d, "fabric.coalesced_frames"), sends), "1/send");
  r.set("net.rndz_per_fill", safe_div(stat(d, "net.rndz.completed"), stat(d, "runtime.fills")),
        "1/fill");
  r.set("net.rndz_fallbacks", stat(d, "net.rndz.fallbacks"), "count");
  r.set("net.tx_busy_frac", busy("duty.tx"), "fraction");
  r.set("net.rx_busy_frac", busy("duty.rx"), "fraction");

  // Modeled wire time: every WR pays the one-way latency once, every byte
  // pays ns_per_byte.
  const double wire_us_per_op =
      safe_div((sends + writes + reads) * static_cast<double>(kFabricLatencyNs) +
                   bytes * kFabricNsPerByte,
               ops) /
      1e3;
  // One application (or client) thread per node.
  const double thread_us_per_op = safe_div(t.seconds * kNodes * 1e6, ops);
  r.set("rdma.wire_model_us_per_op", wire_us_per_op, "us/op");
  r.set("rdma.software_us_per_op", thread_us_per_op - wire_us_per_op, "us/op");
  r.set("rdma.read_wrs_per_op", safe_div(reads, ops), "1/op");

  r.set("graph.msgs_per_iter", safe_div(sends, iters), "1/iter");
  r.set("graph.bytes_per_iter", safe_div(bytes, iters), "B/iter");

  const double user = t.u1.user_s - t.u0.user_s, sys = t.u1.sys_s - t.u0.sys_s;
  r.set("proc.sys_cpu_frac", safe_div(sys, user + sys), "fraction");
  r.set("proc.vol_ctx_switches_per_op",
        safe_div(static_cast<double>(t.u1.vol_cs - t.u0.vol_cs), ops), "1/op");
}

namespace {

constexpr int kProbeRounds = 4000;

dr::FabricConfig probe_fabric() { return dr::FabricConfig{kFabricLatencyNs, kFabricNsPerByte}; }

// Fabric round trip: a signaled one-sided WRITE completes on the remote
// transport ACK, i.e. after 2 x one-way in the model.
void rdma_probe(Report& r, SpanBuf* spans) {
  dr::Fabric fabric(probe_fabric());
  dr::Device* da = fabric.create_device(0);
  dr::Device* db = fabric.create_device(1);
  dr::CompletionQueue a_send, a_recv, b_send, b_recv;
  auto [qa, qb] = fabric.connect(da, &a_send, &a_recv, db, &b_send, &b_recv);
  (void)qb;
  std::vector<std::byte> src(64), dst(64);
  const dr::MemoryRegion ms = da->reg_mr(src.data(), src.size());
  const dr::MemoryRegion md = db->reg_mr(dst.data(), dst.size());

  Hist h;
  for (int i = 0; i < kProbeRounds; ++i) {
    dr::SendWr wr;
    wr.wr_id = static_cast<uint64_t>(i) + 1;
    wr.opcode = dr::Opcode::kWrite;
    wr.sge = {src.data(), static_cast<uint32_t>(src.size()), ms.lkey};
    wr.remote_addr = reinterpret_cast<uint64_t>(dst.data());
    wr.rkey = md.rkey;
    wr.signaled = true;
    const uint64_t t0 = now_ns();
    if (!qa->post_send(wr)) {
      r.error("rdma probe: post_send rejected a valid WRITE");
      return;
    }
    dr::WorkCompletion wc;
    while (a_send.poll({&wc, 1}) == 0) {
    }
    const uint64_t t1 = now_ns();
    if (wc.status != dr::WcStatus::kSuccess || wc.wr_id != wr.wr_id) {
      r.error("rdma probe: WRITE completed with an error or out of order");
      return;
    }
    h.record(t1 - t0);
    if (spans) spans->add(spans->begin_id(), 0, wr.wr_id, "rdma.write_rtt", t0, t1);
  }
  r.set("rdma.rtt_p50_us", h.quantile(0.5) / 1e3, "us");
}

// CommLayer ping-pong: node 0 sends a singleton message, node 1's dispatch
// posts the reply, node 0's dispatch counts it. Nothing else is queued, so
// every message travels as an uncoalesced singleton.
void net_probe(Report& r, SpanBuf* spans) {
  darray::ClusterConfig cfg = base_config();
  cfg.num_nodes = 2;
  dr::Fabric fabric(probe_fabric());
  dr::Device* d0 = fabric.create_device(0);
  dr::Device* d1 = fabric.create_device(1);
  std::atomic<uint64_t> pongs{0};
  std::unique_ptr<dn::CommLayer> c1;
  auto c0 = std::make_unique<dn::CommLayer>(0, 2, cfg, d0, [&](dn::RpcMessage&&) {
    pongs.fetch_add(1, std::memory_order_release);
    pongs.notify_all();
  });
  c1 = std::make_unique<dn::CommLayer>(1, 2, cfg, d1, [&](dn::RpcMessage&& m) {
    dn::TxRequest reply;
    reply.dst = 0;
    reply.hdr.type = dn::MsgType::kLockGrant;
    reply.hdr.txn_id = m.hdr.txn_id;
    c1->post(std::move(reply));
  });
  auto [qa, qb] =
      fabric.connect(d0, c0->send_cq(), c0->recv_cq(), d1, c1->send_cq(), c1->recv_cq());
  c0->set_qp(1, qa);
  c1->set_qp(0, qb);
  c0->start();
  c1->start();

  Hist h;
  for (int i = 0; i < kProbeRounds; ++i) {
    const uint64_t before = pongs.load(std::memory_order_acquire);
    dn::TxRequest req;
    req.dst = 1;
    req.hdr.type = dn::MsgType::kLockAcq;
    req.hdr.txn_id = static_cast<uint32_t>(i);
    const uint64_t t0 = now_ns();
    c0->post(std::move(req));
    pongs.wait(before, std::memory_order_acquire);
    const uint64_t t1 = now_ns();
    h.record(t1 - t0);
    if (spans) spans->add(spans->begin_id(), 0, static_cast<uint64_t>(i), "net.pingpong", t0, t1);
  }
  c0->stop();
  c1->stop();
  if (pongs.load() != static_cast<uint64_t>(kProbeRounds))
    r.error("net probe: " + std::to_string(pongs.load()) + " replies to " +
            std::to_string(kProbeRounds) + " pings");
  r.set("net.pingpong_p50_us", h.quantile(0.5) / 1e3, "us");
  r.set("net.pingpong_p99_us", h.quantile(0.99) / 1e3, "us");
}

}  // namespace

void add_comm_probes(Report& r, Tracer* tracer) {
  SpanBuf* spans = tracer ? &tracer->thread_buf(1000) : nullptr;
  rdma_probe(r, spans);
  net_probe(r, spans);
}

void add_budget_metrics(Report& r) {
  double miss = 0, net = 0, fabric = 0;
  for (const Metric& m : r.metrics) {
    if (m.name == "core.get_miss_p50_us") miss = m.value;
    if (m.name == "net.pingpong_p50_us") net = m.value;
    if (m.name == "rdma.rtt_p50_us") fabric = m.value;
  }
  r.set("core.miss_self_us", miss - net, "us");
  r.set("net.self_us", net - fabric, "us");
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      "core.get_miss_p50_us",
      "core.get_miss_p99_us",
      "core.set_miss_p50_us",
      "core.set_miss_p99_us",
      "core.apply_p50_ns",
      "core.hit_ratio",
      "core.range_p50_us",
      "core.range_p99_us",
      "core.miss_self_us",
      "runtime.remote_reqs_per_op",
      "runtime.invalidations_per_op",
      "runtime.evictions_per_op",
      "runtime.combine_flushes_per_iter",
      "runtime.busy_frac",
      "net.pingpong_p50_us",
      "net.pingpong_p99_us",
      "net.self_us",
      "net.msgs_per_op",
      "net.bytes_per_op",
      "net.frames_per_send",
      "net.rndz_per_fill",
      "net.rndz_fallbacks",
      "net.tx_busy_frac",
      "net.rx_busy_frac",
      "rdma.rtt_p50_us",
      "rdma.wire_model_us_per_op",
      "rdma.software_us_per_op",
      "rdma.read_wrs_per_op",
      "serve.overhead_p50_us",
      "serve.overhead_p99_us",
      "serve.hot_hit_ratio",
      "kvs.get_p50_us",
      "kvs.get_p99_us",
      "kvs.put_p50_us",
      "kvs.put_p99_us",
      "graph.msgs_per_iter",
      "graph.bytes_per_iter",
      "proc.sys_cpu_frac",
      "proc.vol_ctx_switches_per_op",
      "bench.trace_overhead_frac",
  };
  return names;
}

}  // namespace perfbench
