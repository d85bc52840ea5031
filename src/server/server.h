// TCP front end for QueryEngine: poll loop + session FSMs + admission.
//
// Three threads own three concerns:
//
//   poll thread     — accept(2), nonblocking read/write, drives every
//                     Session FSM (decode, backpressure, timeouts) on
//                     a poll(2) loop. Decoded query frames go through
//                     AdmissionController::Offer *here*, so a shed
//                     response costs one encode and never touches a
//                     queue. Edge-update frames are applied to the
//                     engine inline and acked with the content
//                     version that contains them.
//
//   submit thread   — pops admitted queries (priority order), gates on
//                     max_engine_inflight, stamps the absolute
//                     deadline, calls QueryEngine::Submit, and hands
//                     the future to the completion thread. Queries
//                     whose deadline expired while queued are answered
//                     kDeadlineExceeded without submitting.
//
//   completion thread — waits on futures in submission order, feeds
//                     each query's service time back into the
//                     admission cost model (OnServiced), encodes the
//                     response *before* taking mu_, and queues the
//                     frame on the owning session (which may reopen a
//                     backpressured window and resume decoding — those
//                     resumed requests loop back through admission).
//
// Backpressure is end to end: a session whose in-flight window is full
// stops being polled for reads, so a client that outruns the server
// accumulates bytes in its own socket buffer, not in server memory.
//
// Lock order: mu_ (sessions/stats) before AdmissionController's
// internal lock; comp_mu_ (completion queue) is never held together
// with mu_.
//
// The server exports pbfs_server_* metric families
// (sessions, frames, admitted/shed/timed-out, queue depth,
// per-priority latency rolling windows) via ExportLiveMetrics on the
// shared live-telemetry registry.
#ifndef PBFS_SERVER_SERVER_H_
#define PBFS_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/query_engine.h"
#include "obs/live/metrics_registry.h"
#include "obs/live/rolling_window.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "server/session.h"

namespace pbfs {
namespace server {

struct ServerOptions {
  // 0 = kernel-assigned ephemeral port (read it back from port()).
  int port = 0;
  // Connection cap. At the cap a new accept evicts the least-recently-
  // active open session (close reason "evicted") instead of being
  // turned away, so one idle fleet cannot lock out live clients.
  size_t max_sessions = 256;
  SessionOptions session;
  AdmissionController::Options admission;
  // Queries submitted to the engine but not yet completed; the submit
  // thread stalls at this cap so the admission queue (which sheds)
  // absorbs overload instead of the engine's unbounded pending map.
  size_t max_engine_inflight = 128;
  // Poll timeout: bounds FSM timer latency.
  int poll_interval_ms = 50;
};

struct ServerStats {
  uint64_t sessions_opened = 0;
  uint64_t sessions_closed = 0;
  uint64_t sessions_evicted = 0;  // closed by LRA eviction at the cap
  size_t sessions_active = 0;
  uint64_t frames_rx = 0;
  uint64_t frames_tx = 0;
  uint64_t protocol_errors = 0;
  uint64_t backpressure_events = 0;
  uint64_t responses_dropped = 0;  // session died before its response
  uint64_t updates_applied = 0;    // edge-update frames acked
  uint64_t queries_timed_out = 0;  // expired in queue or by the engine
  uint64_t queries_ok = 0;
  AdmissionController::Stats admission;
  size_t engine_inflight = 0;
};

class PbfsServer {
 public:
  // `engine` is borrowed and must outlive the server.
  PbfsServer(QueryEngine* engine, const ServerOptions& options);
  ~PbfsServer();

  PbfsServer(const PbfsServer&) = delete;
  PbfsServer& operator=(const PbfsServer&) = delete;

  // Binds (loopback), spawns the three threads. False on bind failure.
  bool Start();
  // Graceful stop: stop accepting, drain sessions (bounded by their
  // drain timers), complete already-submitted queries, join threads.
  // Queued-but-unsubmitted queries are abandoned. Idempotent.
  void Stop();

  int port() const { return port_; }
  ServerStats GetStats() const;

  // Registers the pbfs_server_* collector; withdrawn in Stop().
  void ExportLiveMetrics(obs::MetricsRegistry* registry);

 private:
  struct Conn {
    int fd = -1;
    std::unique_ptr<Session> session;
  };

  // A submitted (or synthetically completed) request awaiting delivery.
  // Its identity (session, request id, type, priority) travels in the
  // result's trace record.
  struct InFlight {
    // Taken just before Submit, so the admission cost model's service
    // time includes the wait for the engine (the engine's own
    // kSubmitted stamp comes after it).
    int64_t submit_ns = 0;
    bool counted_inflight = false;  // true when it holds an engine slot
    std::future<QueryResult> future;
  };

  void PollLoop();
  void SubmitLoop();
  void CompletionLoop();

  // Requires mu_. Routes decoded requests: queries through admission
  // (shed responses queued immediately), update frames applied + acked.
  // Processes the full worklist including requests resumed by window
  // reopens.
  void HandleRequestsLocked(Conn& conn, std::vector<Request>* requests,
                            int64_t now_ns);
  // Requires mu_. Queue one already-encoded response frame on its
  // session (moved, not copied, into an empty tx buffer).
  void QueueFrameLocked(Conn& conn, std::string&& frame, int64_t now_ns,
                        std::vector<Request>* resumed);
  // Completion-thread side: encode (outside mu_), close the query's
  // trace record at wire-delivery time, find the session named by
  // result.trace and deliver.
  void DeliverResponse(QueryResult&& result);
  void WakePoll();
  // Requires mu_. Close the fd and drop the session.
  void CloseConnLocked(Conn& conn);
  // Requires mu_. Evict the least-recently-active open session to make
  // room at the connection cap. Returns false if nothing was evictable.
  bool EvictLraLocked(int64_t now_ns);

  // Moves the result's arrays into the response instead of copying;
  // the request id and type come from result.trace.
  static QueryResponse MakeResponse(QueryResult&& result);

  QueryEngine* const engine_;
  const ServerOptions options_;
  AdmissionController admission_;

  int listen_fd_ = -1;
  int port_ = 0;
  int wake_pipe_[2] = {-1, -1};

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Conn> conns_;
  uint64_t next_session_id_ = 1;
  ServerStats stats_;
  bool stopping_ = false;
  bool started_ = false;

  std::mutex comp_mu_;
  std::condition_variable comp_cv_;
  std::condition_variable inflight_cv_;
  std::deque<InFlight> completions_;
  // Atomic so admission offers (under mu_) can read it without taking
  // comp_mu_; writes happen under comp_mu_ so the submit gate's
  // condition_variable wait never misses a wakeup.
  std::atomic<size_t> engine_inflight_{0};
  bool submit_done_ = false;

  std::thread poll_thread_;
  std::thread submit_thread_;
  std::thread completion_thread_;

  void CollectLiveMetrics(obs::ExpositionWriter& writer) const;
  obs::MetricsRegistry* live_registry_ = nullptr;
  obs::RollingWindow latency_windows_[kNumPriorities];
};

}  // namespace server
}  // namespace pbfs

#endif  // PBFS_SERVER_SERVER_H_
