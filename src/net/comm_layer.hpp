// The paper's communication layer (Fig. 2, §4.5): per node, a Tx thread that
// drains the RDMA-request queue and posts work to the NIC with selective
// signaling, and an Rx thread that polls the completion queue and delivers
// parsed RPC messages to the runtime. Dedicated networking threads mean the
// QP count is nodes² × 1, independent of the number of application/runtime
// threads — the paper's n²·c (c = networking threads) instead of n²·t.
//
// Small-message engine (docs/perf.md): the Tx thread has one transmit path.
// It packs every protocol message it finds queued for the same peer into one
// wire SEND (kBatch framing, bytes/frames/deadline cutoffs) and defers
// posting so each drain pass rings each peer QP's doorbell once with a span
// of work requests. A batch of one frame goes out in the plain single-message
// format, so cfg.coalesce_max_frames = 1 sends one wire SEND per message. The
// Rx thread unpacks frames in place and dispatches each. Payloads ride in
// pooled PayloadBufs, so the steady-state Tx/Rx path performs no heap
// allocation.
//
// Large-message engine (docs/perf.md): payload-bearing requests at or above
// cfg.rendezvous_threshold_bytes switch from the eager path to a rendezvous:
// the Tx thread parks the request in a lease and sends a small kRndzReq
// advertising the pinned source {addr, rkey, len}; the peer's Tx thread pulls
// the bytes with one-sided RDMA READs (MTU-chunked, one signaled completion),
// then dispatches the embedded notification and returns a piggybacked
// kRndzFin that releases the lease (fires the posted_flag). No send-arena
// staging touches the payload on either side — the transfer is zero-copy end
// to end. A failed pull (WC error after retry exhaustion, or no lease slot
// free) NAKs with kRndzAck and the sender falls back to the eager path, so
// rendezvous never loses a message — it only loses the zero-copy fast path.
//
// Fault recovery (see docs/chaos.md): a completion-with-error moves the QP to
// ERROR and the Tx thread becomes the recovery driver for that peer. The
// fabric never half-executes a WR — an error status means no bytes moved — so
// re-posting is exactly-once. Ordering is preserved end to end: the error
// flushes everything behind the failed WR, the Tx thread collects failed and
// flushed requests into a per-peer retry queue in original order, stages any
// new requests for that peer behind them, and after a bounded-exponential
// backoff resets the QP and replays the queue front to back. A coalesced
// batch is one WR, so replay keeps its frames contiguous and in order.
// Requests that exhaust their attempt budget or wall-clock deadline are
// handed to the error handler (default: fail-stop) instead of retried.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/mpsc_queue.hpp"
#include "net/message.hpp"
#include "obs/duty_cycle.hpp"
#include "rdma/completion_queue.hpp"
#include "rdma/device.hpp"
#include "rdma/fabric.hpp"
#include "rdma/queue_pair.hpp"

namespace darray::net {

// An unrecoverable communication failure, delivered on the Tx thread.
struct CommError {
  uint32_t peer = 0;
  rdma::Opcode opcode = rdma::Opcode::kSend;
  rdma::WcStatus status = rdma::WcStatus::kSuccess;
  uint32_t attempts = 0;
  uint32_t frames = 1;  // protocol messages lost (a dropped batch loses several)
  const char* reason = "";
};

class CommLayer {
 public:
  // `dispatch` is invoked on a comm thread for every inbound message — the Rx
  // thread normally, the Tx thread for notifications embedded in a completed
  // rendezvous pull; it must only route (push to a runtime queue), never block.
  using DispatchFn = std::function<void(RpcMessage&&)>;
  // Invoked on the Tx thread when a request is abandoned (retry budget or
  // deadline exhausted, or an untracked WR failed). The handler must not
  // block; with no handler installed the comm layer fail-stops.
  using ErrorFn = std::function<void(const CommError&)>;

  CommLayer(uint32_t node_id, uint32_t num_nodes, const ClusterConfig& cfg,
            rdma::Device* device, DispatchFn dispatch);
  ~CommLayer();

  CommLayer(const CommLayer&) = delete;
  CommLayer& operator=(const CommLayer&) = delete;

  rdma::Device* device() const { return device_; }
  rdma::CompletionQueue* send_cq() { return &send_cq_; }
  rdma::CompletionQueue* recv_cq() { return &recv_cq_; }

  // Topology wiring (before start()).
  void set_qp(uint32_t peer, rdma::QueuePair* qp);

  // Optional; before start().
  void set_error_handler(ErrorFn fn) { error_fn_ = std::move(fn); }

  void start();
  void stop();

  // Any runtime thread: enqueue an outbound request for the Tx thread.
  void post(TxRequest req);

  size_t max_msg_bytes() const { return max_msg_bytes_; }

  // Requests abandoned after exhausting recovery (diagnostics / tests).
  uint64_t dropped_requests() const {
    return dropped_requests_.load(std::memory_order_relaxed);
  }

  // Large-message engine counters (sender side; any thread may sample).
  // started counts rendezvous negotiations begun; completed counts leases
  // released by a kRndzFin; fallbacks counts transfers that reverted to the
  // eager path (lease-table exhaustion or a peer NAK); bytes counts payload
  // bytes moved by completed rendezvous (excluded from eager accounting).
  struct RndzStats {
    uint64_t started = 0;
    uint64_t completed = 0;
    uint64_t fallbacks = 0;
    uint64_t bytes = 0;
  };
  RndzStats rndz_stats() const {
    return {rndz_started_.load(std::memory_order_relaxed),
            rndz_completed_.load(std::memory_order_relaxed),
            rndz_fallbacks_.load(std::memory_order_relaxed),
            rndz_bytes_.load(std::memory_order_relaxed)};
  }

  // Per-peer outbound byte accounting (protocol bytes: header+payload for
  // SENDs, payload bytes for bulk data), split by transfer mechanism so
  // remote:local ratios and darray-top's per-peer columns stay truthful for
  // the bulk path. Indexed by peer node id; any thread may sample.
  struct PeerTxBytes {
    uint64_t send_bytes = 0;   // eager SEND traffic (headers + payloads)
    uint64_t write_bytes = 0;  // eager one-sided data WRITEs
    uint64_t rndz_bytes = 0;   // completed rendezvous pulls (sender side)
  };
  PeerTxBytes peer_tx_bytes(uint32_t peer) const {
    const auto& c = peer_tx_[peer];
    return {c.send.load(std::memory_order_relaxed),
            c.write.load(std::memory_order_relaxed),
            c.rndz.load(std::memory_order_relaxed)};
  }
  uint64_t total_tx_bytes() const {
    uint64_t total = 0;
    for (uint32_t p = 0; p < num_nodes_; ++p) {
      const auto& c = peer_tx_[p];
      total += c.send.load(std::memory_order_relaxed) +
               c.write.load(std::memory_order_relaxed) +
               c.rndz.load(std::memory_order_relaxed);
    }
    return total;
  }

  // Busy/idle duty cycle of the comm threads (obs; any thread may sample).
  const obs::DutyCycle& tx_duty() const { return tx_duty_; }
  const obs::DutyCycle& rx_duty() const { return rx_duty_; }

 private:
  static constexpr uint32_t kNoBuf = ~0u;

  // One posted (or to-be-posted) WR. SENDs always reference a send-arena
  // buffer (a coalesced batch is one entry covering `frames` protocol
  // messages); WRITEs do too in chaos mode or once recovery stages them (the
  // payload is captured so the source cacheline can be recycled and the WR
  // replayed). Outside chaos mode a data WRITE stays zero-copy: it posts
  // unsignaled straight from its source and is never tracked for replay.
  struct Outstanding {
    uint64_t wr_id = 0;
    uint32_t buf = kNoBuf;      // send-arena buffer index
    uint32_t len = 0;
    rdma::Opcode op = rdma::Opcode::kSend;
    uint64_t remote_addr = 0;   // WRITE only
    uint32_t rkey = 0;          // WRITE only
    uint32_t attempts = 0;      // post attempts so far
    uint16_t frames = 1;        // protocol messages carried (batch SENDs > 1)
    uint64_t deadline_ns = 0;
    uint64_t trace = 0;         // obs correlation id (first traced frame for a
                                //   batch), so retries attribute to their op
    uint8_t msg_class = 0;      // latency-histogram class (MsgType value, or
                                //   kMsgClassDataWrite for data WRITEs)
    rdma::WcStatus last_status = rdma::WcStatus::kSuccess;

    // Entries without an arena buffer post from a local slice instead: a
    // READ pull chunk's destination (replay re-reads into the same slice,
    // which is idempotent) or a zero-copy WRITE's source.
    const std::byte* local = nullptr;
    uint32_t local_lkey = 0;
    // Zero-copy WRITEs only: released once the WR is posted or captured.
    std::atomic<uint32_t>* posted_flag = nullptr;
    // Rendezvous READ pulls only: the pull this chunk belongs to. rndz_last
    // marks the final (signaled) chunk whose retirement completes the pull.
    uint32_t rndz_id = 0;       // key into rndz_pulls_; 0 = not a pull chunk
    bool rndz_last = false;

    bool zero_copy() const { return op == rdma::Opcode::kWrite && buf == kNoBuf; }
  };

  // Per-peer recovery state (Tx-private). `moved` receives failed/flushed
  // entries in CQE order while their QP drains; once the outstanding FIFO is
  // empty they are prepended to `retry` (they predate anything staged there)
  // and replayed after the backoff expires.
  struct PeerRecovery {
    std::deque<Outstanding> moved;
    std::deque<Outstanding> retry;
    uint64_t next_attempt_ns = 0;
  };

  // Per-peer Tx coalescing state: the open pack buffer (frames written
  // behind a reserved kBatch-envelope slot) plus sealed-but-unposted WRs for
  // this drain pass. Arena-backed WRs enter the outstanding FIFO when posted;
  // zero-copy WRITEs release their source instead.
  struct TxBatch {
    uint32_t buf = kNoBuf;
    uint32_t bytes = 0;     // used bytes, including the reserved envelope slot
    uint32_t frames = 0;
    uint64_t open_ns = 0;   // when the first frame was staged
    uint64_t trace = 0;     // first traced frame in the open batch
    uint8_t msg_class = 0;  // class of a single-frame batch (mixed batches
                            //   keep the first frame's class)
    std::vector<Outstanding> wrs;
  };

  // --- rendezvous state -------------------------------------------------------

  // Sender side: one parked large-message request whose source region stays
  // pinned until the peer's kRndzFin (or a NAK reverts it to eager). The
  // lease id on the wire is (generation << 16) | slot so a stale FIN/ACK that
  // raced a fallback cannot release a recycled slot. Guarded by lease_mu_
  // (taken by the Tx thread to start and the Rx thread to release — both are
  // O(1) critical sections on a path already costing a network round trip).
  struct RndzLease {
    TxRequest req;
    uint32_t gen = 0;
    bool active = false;
  };

  // Receiver side: a parsed kRndzReq handed from the Rx thread to the Tx
  // thread (only the Tx thread may post, and the pull is a batch of READ
  // WRs). `inner` is the embedded notification dispatched once the pull's
  // signaled completion retires.
  struct RndzJob {
    RndzDesc desc;
    uint16_t src = 0;     // sender node (where FIN/NAK goes)
    uint64_t trace = 0;
    MsgHeader inner_hdr;
    PayloadBuf inner_payload;
  };

  // Receiver side, Tx-private: an in-flight pull (READ chunks posted, FIN not
  // yet sent). Keyed by a Tx-local id carried in each chunk's Outstanding so
  // chunk retirement/failure can find its pull.
  struct RndzPull {
    uint16_t src = 0;
    uint32_t lease_id = 0;
    uint32_t len = 0;
    uint64_t trace = 0;
    MsgHeader inner_hdr;
    PayloadBuf inner_payload;
  };

  // Profile anchors: keep the drain loops out of the std::thread lambdas so
  // sampled stacks name them (docs/observability.md v5).
  DARRAY_PROFILE_ANCHOR void tx_main();
  DARRAY_PROFILE_ANCHOR void rx_main();
  // The transmit path: stage a request into the per-peer batch state.
  void enqueue_tx(TxRequest& req);
  void append_frame(uint32_t peer, TxRequest& req, uint64_t now);
  void seal_batch(uint32_t peer);
  void flush_peer(uint32_t peer, bool seal_open = true);
  void flush_all();
  void flush_due(uint64_t now);
  void stage_pending(uint32_t peer);
  // The eager data WRITE of `req` as a zero-copy entry posting from its source.
  Outstanding data_entry(const TxRequest& req, uint64_t now) const;
  // Copy a zero-copy WRITE's payload into replayable arena-backed entries
  // (chunked to max_msg_bytes_, so payloads larger than one arena buffer
  // survive), append them to `out` and release the source.
  template <class Out>
  void capture_write(const Outstanding& w, Out& out);
  Outstanding make_send_entry(TxRequest& req, uint64_t now);
  rdma::SendWr wr_for(const Outstanding& e);  // wr_id, opcode, sge, remote
  void post_entry(uint32_t peer, Outstanding e);
  // Rendezvous: sender-side negotiation start. Returns false (leaving `req`
  // intact) when no lease slot is free — the caller falls back to eager.
  bool start_rndz(TxRequest& req);
  // Rendezvous: release lease `id` if it is still current. `completed`
  // distinguishes FIN (release the source, count bytes) from NAK (re-post
  // the parked request eagerly).
  void finish_lease(uint32_t id, bool completed);
  // Rendezvous: receiver side (Tx thread). start_pull posts the READ chunks;
  // process_rndz_actions handles completed pulls (dispatch + FIN) and failed
  // ones (NAK) — deferred so they never run nested inside a flush.
  void start_pull(RndzJob&& job, uint64_t now);
  bool process_rndz_actions();
  void send_ctl(uint16_t dst, MsgType type, uint32_t lease_id, uint64_t trace);
  // Rx-thread intercept for transport-internal rendezvous messages; returns
  // true when the message was consumed (not for the runtime).
  bool handle_rndz_msg(RpcMessage& m);
  void reclaim_send_buffers();
  void handle_error_cqe(const rdma::WorkCompletion& wc);
  void pump_retries(uint64_t now);
  void fail_entry(uint32_t peer, Outstanding& e, const char* reason);
  void fail(const CommError& err);
  // Nanoseconds until the Tx thread has timed work: a held-back send
  // completion or an expiring retry backoff (~0 = none; neither rings the bell).
  uint64_t tx_due_in();
  uint64_t backoff_ns(uint32_t attempts) const;
  uint32_t acquire_send_buffer();  // parks on the Tx doorbell when exhausted
  void release_buf(uint32_t buf) {
    if (buf != kNoBuf) send_free_.push_back(buf);
  }
  std::byte* buf_ptr(uint32_t buf) {
    return send_arena_.get() + size_t{buf} * max_msg_bytes_;
  }

  const uint32_t node_id_;
  const uint32_t num_nodes_;
  const ClusterConfig cfg_;
  rdma::Device* device_;
  DispatchFn dispatch_;
  ErrorFn error_fn_;
  const size_t max_msg_bytes_;

  Doorbell tx_bell_;
  Doorbell rx_bell_;
  rdma::CompletionQueue send_cq_{&tx_bell_};
  rdma::CompletionQueue recv_cq_{&rx_bell_};
  MpscQueue<TxRequest> tx_queue_{&tx_bell_};

  std::vector<rdma::QueuePair*> qp_to_peer_;        // indexed by peer node id
  std::vector<rdma::QueuePair*> qp_by_num_;         // sparse, indexed by qp_num

  // Send-side message buffers: one registered arena, Tx-private freelist,
  // per-QP FIFO of outstanding buffers reclaimed by signaled completions.
  std::unique_ptr<std::byte[]> send_arena_;
  rdma::MemoryRegion send_mr_;
  uint32_t send_buf_count_ = 0;
  std::vector<uint32_t> send_free_;                  // Tx-private
  std::vector<std::deque<Outstanding>> outstanding_; // per peer
  std::vector<PeerRecovery> recovery_;               // per peer, Tx-private
  std::vector<TxBatch> txb_;                         // per peer, Tx-private
  std::vector<rdma::SendWr> post_wrs_;               // flush scratch, Tx-private
  std::vector<uint32_t> unsignaled_run_;             // per peer, for signaling
  uint64_t next_wr_id_ = 1;
  bool chaos_ = false;     // fabric has a fault injector (latched at start())
  bool in_flush_ = false;  // Tx-private: guards acquire→flush reentrancy

  // Recv-side buffers: preposted per QP, reposted by Rx after parsing.
  // Buffers flushed by a QP error are parked (Rx-private) until the Tx side
  // resets the QP, then reposted.
  std::unique_ptr<std::byte[]> recv_arena_;
  rdma::MemoryRegion recv_mr_;
  std::vector<std::vector<rdma::RecvWr>> parked_recvs_;  // per peer, Rx-private
  std::vector<RpcMessage> rx_scratch_;                   // Rx-private

  std::atomic<uint64_t> dropped_requests_{0};

  // --- rendezvous state (see struct comments above) ---------------------------
  std::mutex lease_mu_;
  std::vector<RndzLease> leases_;                    // fixed size, cfg-bounded
  MpscQueue<RndzJob> rndz_jobs_{&tx_bell_};          // Rx → Tx pull handoff
  std::unordered_map<uint32_t, RndzPull> rndz_pulls_;  // Tx-private, in-flight
  uint32_t next_rndz_id_ = 1;                        // Tx-private
  std::vector<uint32_t> rndz_done_;                  // Tx-private, deferred
  struct RndzNak {
    uint16_t src = 0;
    uint32_t lease_id = 0;
    uint64_t trace = 0;
  };
  std::vector<RndzNak> rndz_nak_;                    // Tx-private, deferred
  std::atomic<uint64_t> rndz_started_{0}, rndz_completed_{0};
  std::atomic<uint64_t> rndz_fallbacks_{0}, rndz_bytes_{0};

  // Per-peer outbound byte counters (see PeerTxBytes).
  struct PeerTxCounters {
    std::atomic<uint64_t> send{0}, write{0}, rndz{0};
  };
  std::unique_ptr<PeerTxCounters[]> peer_tx_;

  obs::DutyCycle tx_duty_;
  obs::DutyCycle rx_duty_;

  std::thread tx_thread_;
  std::thread rx_thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
};

}  // namespace darray::net
