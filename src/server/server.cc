#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/query_trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace pbfs {
namespace server {

PbfsServer::PbfsServer(QueryEngine* engine, const ServerOptions& options)
    : engine_(engine), options_(options), admission_(options.admission) {
  PBFS_CHECK(engine_ != nullptr);
}

PbfsServer::~PbfsServer() { Stop(); }

bool PbfsServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) return false;
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  if (::pipe2(wake_pipe_, O_NONBLOCK) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  started_ = true;
  poll_thread_ = std::thread([this] { PollLoop(); });
  submit_thread_ = std::thread([this] { SubmitLoop(); });
  completion_thread_ = std::thread([this] { CompletionLoop(); });
  return true;
}

void PbfsServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
  }
  // Order matters: the submit thread exits once admission stops, the
  // completion thread drains every already-submitted future and
  // delivers it, and only then does the poll thread flush the last
  // responses and let session drain timers reap stragglers.
  admission_.Stop();
  WakePoll();
  submit_thread_.join();
  completion_thread_.join();
  poll_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
  if (live_registry_ != nullptr) {
    live_registry_->RemoveCollectors(this);
    live_registry_ = nullptr;
  }
}

void PbfsServer::WakePoll() {
  if (wake_pipe_[1] < 0) return;
  char b = 1;
  // Nonblocking: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
}

// ---- Request routing (poll thread or completion thread, under mu_) ----

namespace {

Query BuildQuery(const QueryRequest& req, uint64_t session_id,
                 int64_t deadline_ns, int64_t now_ns) {
  Query q;
  q.type = req.type;
  q.source = req.source;
  q.targets = req.targets;
  q.tolerance = req.tolerance;
  q.max_hops = req.max_hops;
  q.deadline_ns = deadline_ns;
  // The trace record opens at frame decode and travels with the query;
  // the server closes it once the response is queued. Client-supplied
  // ids pass through; legacy frames get a minted one.
  obs::QueryTraceRecord& trace = q.trace;
  trace.trace_id = req.trace_id != 0
                       ? req.trace_id
                       : obs::QueryTraceStore::Get().MintTraceId();
  trace.request_id = req.request_id;
  trace.session_id = session_id;
  trace.query_type = static_cast<uint8_t>(req.type);
  trace.priority = static_cast<uint8_t>(req.priority);
  trace.sampled = req.trace_sampled;
  trace.bound(obs::QueryStageBound::kReceived) = now_ns;
  return q;
}

}  // namespace

QueryResponse PbfsServer::MakeResponse(QueryResult&& result) {
  QueryResponse resp;
  resp.request_id = result.trace.request_id;
  resp.type = static_cast<QueryType>(result.trace.query_type);
  resp.status = result.status;
  resp.sketch_resolved = result.sketch_resolved;
  resp.snapshot_version = result.snapshot_version;
  resp.distance = result.distance;
  resp.bound_lower = result.distance_bounds.lower;
  resp.bound_upper = result.distance_bounds.upper;
  resp.vertices_reached = result.vertices_reached;
  resp.levels = std::move(result.levels);
  resp.reachable = std::move(result.reachable);
  resp.khop_sizes = std::move(result.khop_sizes);
  return resp;
}

void PbfsServer::QueueFrameLocked(Conn& conn, std::string&& frame,
                                  int64_t now_ns,
                                  std::vector<Request>* resumed) {
  ++stats_.frames_tx;
  conn.session->OnResponseQueued(std::move(frame), now_ns, resumed);
}

void PbfsServer::HandleRequestsLocked(Conn& conn,
                                      std::vector<Request>* requests,
                                      int64_t now_ns) {
  // Responses queued here can reopen a backpressured window and resume
  // decoding of buffered frames; iterate until the worklist is dry
  // instead of recursing.
  std::vector<Request> work = std::move(*requests);
  requests->clear();
  while (!work.empty()) {
    std::vector<Request> next;
    for (Request& req : work) {
      ++stats_.frames_rx;
      if (req.kind == MessageKind::kEdgeUpdates) {
        // The decoder cannot know |V|, and the engine treats an endpoint
        // outside the graph as a broken invariant. Such a frame is a
        // protocol error: nothing in it is applied, the session closes,
        // and its later requests are dropped.
        const Vertex n = engine_->num_vertices();
        const std::vector<EdgeUpdate>& updates = req.updates.updates;
        if (std::any_of(updates.begin(), updates.end(),
                        [n](const EdgeUpdate& u) {
                          return u.u >= n || u.v >= n;
                        })) {
          conn.session->OnInvalidRequest(
              "edge update endpoint out of range", now_ns);
          return;
        }
        const uint64_t version = engine_->ApplyUpdates(req.updates.updates);
        ++stats_.updates_applied;
        UpdateResponse ack;
        ack.request_id = req.updates.request_id;
        ack.content_version = version;
        ack.num_applied = static_cast<uint32_t>(req.updates.updates.size());
        std::string frame;
        EncodeUpdateResponse(ack, &frame);
        QueueFrameLocked(conn, std::move(frame), now_ns, &next);
        continue;
      }
      const QueryRequest& q = req.query;
      const int64_t deadline_ns =
          q.deadline_ms == 0
              ? 0
              : now_ns + static_cast<int64_t>(q.deadline_ms) * 1000000;
      Query query = BuildQuery(q, conn.session->id(), deadline_ns, now_ns);
      // Offer consumes the query; a shed query's record closes from
      // this copy, which never passed admission.
      obs::QueryTraceRecord trace = query.trace;
      query.trace.bound(obs::QueryStageBound::kAdmitted) = now_ns;
      const AdmitResult r =
          admission_.Offer(std::move(query), engine_inflight_.load());
      if (r != AdmitResult::kAdmitted) {
        trace.shed_reason =
            r == AdmitResult::kShedQueueFull ? "queue_full" : "deadline";
        obs::QueryTraceStore::Get().Finish(trace, obs::QueryOutcome::kShed,
                                           now_ns);
        QueryResponse resp;
        resp.request_id = q.request_id;
        resp.type = q.type;
        resp.status = QueryStatus::kShed;
        std::string frame;
        EncodeQueryResponse(resp, &frame);
        QueueFrameLocked(conn, std::move(frame), now_ns, &next);
      }
    }
    work = std::move(next);
  }
}

// ---- Submit thread ----

void PbfsServer::SubmitLoop() {
  Query query;
  bool expired = false;
  while (admission_.Take(&query, &expired)) {
    InFlight f;
    query.trace.bound(obs::QueryStageBound::kTaken) = NowNanos();
    if (expired) {
      // Missed its deadline while queued: answer without burning a
      // traversal. Routed through the completion queue so delivery
      // order per session stays sane.
      std::promise<QueryResult> p;
      QueryResult r;
      r.status = QueryStatus::kDeadlineExceeded;
      r.trace = query.trace;
      p.set_value(std::move(r));
      f.future = p.get_future();
    } else {
      {
        std::unique_lock<std::mutex> lock(comp_mu_);
        inflight_cv_.wait(lock, [this] {
          return engine_inflight_.load() < options_.max_engine_inflight;
        });
      }
      f.counted_inflight = true;
      f.submit_ns = NowNanos();
      QueryEngine::Submission sub = engine_->Submit(std::move(query));
      f.future = std::move(sub.result);
    }
    {
      std::lock_guard<std::mutex> lock(comp_mu_);
      if (f.counted_inflight) engine_inflight_.fetch_add(1);
      completions_.push_back(std::move(f));
    }
    comp_cv_.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(comp_mu_);
    submit_done_ = true;
  }
  comp_cv_.notify_all();
}

// ---- Completion thread ----

void PbfsServer::CompletionLoop() {
  for (;;) {
    InFlight f;
    {
      std::unique_lock<std::mutex> lock(comp_mu_);
      comp_cv_.wait(lock,
                    [this] { return !completions_.empty() || submit_done_; });
      if (completions_.empty()) break;  // submit_done_ and nothing left
      f = std::move(completions_.front());
      completions_.pop_front();
    }
    // Futures resolve in submission order often enough that waiting on
    // the head rarely blocks behind a later completion; when it does,
    // the wait is bounded by the engine's batch time.
    QueryResult result = f.future.get();
    const int64_t done_ns = NowNanos();
    if (f.counted_inflight) {
      {
        std::lock_guard<std::mutex> lock(comp_mu_);
        engine_inflight_.fetch_sub(1);
      }
      inflight_cv_.notify_one();
      // Feed the cost model with submit-to-completion time: it
      // overestimates pure service time by the engine's internal queue
      // wait, which makes deadline shedding conservative under load —
      // the direction we want.
      admission_.OnServiced(static_cast<double>(done_ns - f.submit_ns) *
                            1e-6);
    }
    DeliverResponse(std::move(result));
  }
}

void PbfsServer::DeliverResponse(QueryResult&& result) {
  obs::QueryTraceRecord trace = result.trace;
  const QueryResponse resp = MakeResponse(std::move(result));
  // Encoded before taking mu_: the poll thread holds mu_ for its whole
  // recv/send pass, so a long encode under it would stall I/O on every
  // connection.
  std::string frame;
  EncodeQueryResponse(resp, &frame);
  const int64_t now = NowNanos();
  latency_windows_[trace.priority].Add(
      static_cast<double>(now - trace.bound(obs::QueryStageBound::kReceived)) *
          1e-6,
      now);
  // Closing here (not at engine completion) makes the record's wire
  // latency span decode through tx-queue — the latency the client saw.
  obs::QueryTraceStore::Get().Finish(trace, TraceOutcome(resp.status), now);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (resp.status == QueryStatus::kOk) ++stats_.queries_ok;
    if (resp.status == QueryStatus::kDeadlineExceeded) {
      ++stats_.queries_timed_out;
    }
    auto it = conns_.find(trace.session_id);
    if (it == conns_.end()) {
      ++stats_.responses_dropped;
      return;
    }
    std::vector<Request> resumed;
    QueueFrameLocked(it->second, std::move(frame), now, &resumed);
    if (!resumed.empty()) HandleRequestsLocked(it->second, &resumed, now);
  }
  WakePoll();
}

// ---- Poll thread ----

void PbfsServer::CloseConnLocked(Conn& conn) {
  ++stats_.sessions_closed;
  if (conn.session->close_reason() == "protocol_error") {
    ++stats_.protocol_errors;
  }
  stats_.backpressure_events += conn.session->backpressure_events();
  ::close(conn.fd);
  conn.fd = -1;
}

bool PbfsServer::EvictLraLocked(int64_t now_ns) {
  auto victim = conns_.end();
  for (auto it = conns_.begin(); it != conns_.end(); ++it) {
    if (it->second.session->state() == SessionState::kClosed) continue;
    if (victim == conns_.end() ||
        it->second.session->last_activity_ns() <
            victim->second.session->last_activity_ns()) {
      victim = it;
    }
  }
  if (victim == conns_.end()) return false;
  victim->second.session->OnEvicted(now_ns);
  if (victim->second.session->state() != SessionState::kClosed) return false;
  CloseConnLocked(victim->second);
  conns_.erase(victim);
  ++stats_.sessions_evicted;
  return true;
}

void PbfsServer::PollLoop() {
  std::vector<pollfd> pfds;
  std::vector<uint64_t> ids;
  std::vector<char> buf(64 * 1024);
  bool shutdown_broadcast = false;
  for (;;) {
    pfds.clear();
    ids.clear();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_ && conns_.empty()) break;
      // Keep accepting at the connection cap: the accept path below
      // evicts the least-recently-active session to make room.
      const bool accepting = !stopping_;
      pfds.push_back({wake_pipe_[0], POLLIN, 0});
      pfds.push_back(
          {listen_fd_, static_cast<short>(accepting ? POLLIN : 0), 0});
      for (auto& [id, conn] : conns_) {
        short events = 0;
        if (conn.session->WantRead()) events |= POLLIN;
        if (conn.session->HasTx()) events |= POLLOUT;
        pfds.push_back({conn.fd, events, 0});
        ids.push_back(id);
      }
    }
    ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
           options_.poll_interval_ms);
    const int64_t now = NowNanos();
    std::lock_guard<std::mutex> lock(mu_);
    if (pfds[0].revents & POLLIN) {
      char drain[256];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }
    if (pfds[1].revents & POLLIN) {
      for (;;) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
        if (fd < 0) break;
        if (stopping_ ||
            (conns_.size() >= options_.max_sessions && !EvictLraLocked(now))) {
          ::close(fd);
          continue;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        const uint64_t id = next_session_id_++;
        Conn conn;
        conn.fd = fd;
        conn.session = std::make_unique<Session>(id, options_.session, now);
        conns_.emplace(id, std::move(conn));
        ++stats_.sessions_opened;
      }
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      auto it = conns_.find(ids[i]);
      if (it == conns_.end()) continue;
      Conn& conn = it->second;
      Session& session = *conn.session;
      const short revents = pfds[i + 2].revents;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
        session.OnPeerClosed(now);
        continue;
      }
      if (revents & POLLIN) {
        while (session.WantRead()) {
          const ssize_t n = ::recv(conn.fd, buf.data(), buf.size(), 0);
          if (n > 0) {
            std::vector<Request> requests;
            const bool open = session.OnBytes(
                std::string_view(buf.data(), static_cast<size_t>(n)), now,
                &requests);
            HandleRequestsLocked(conn, &requests, now);
            if (!open || static_cast<size_t>(n) < buf.size()) break;
          } else if (n == 0) {
            session.OnPeerClosed(now);
            break;
          } else {
            if (errno == EINTR) continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK) {
              session.OnPeerClosed(now);
            }
            break;
          }
        }
      }
      if ((revents & POLLOUT) && session.HasTx()) {
        const std::string_view tx = session.Tx();
        const ssize_t n =
            ::send(conn.fd, tx.data(), tx.size(), MSG_NOSIGNAL);
        if (n > 0) {
          session.ConsumeTx(static_cast<size_t>(n), now);
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          session.OnPeerClosed(now);
        }
      }
    }
    if (stopping_ && !shutdown_broadcast) {
      shutdown_broadcast = true;
      for (auto& [id, conn] : conns_) conn.session->OnShutdown(now);
    }
    for (auto it = conns_.begin(); it != conns_.end();) {
      it->second.session->OnTick(now);
      if (it->second.session->state() == SessionState::kClosed) {
        CloseConnLocked(it->second);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

ServerStats PbfsServer::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStats s = stats_;
  s.sessions_active = conns_.size();
  for (const auto& [id, conn] : conns_) {
    s.backpressure_events += conn.session->backpressure_events();
  }
  s.admission = admission_.GetStats();
  s.engine_inflight = engine_inflight_.load();
  return s;
}

void PbfsServer::ExportLiveMetrics(obs::MetricsRegistry* registry) {
  PBFS_CHECK(registry != nullptr);
  live_registry_ = registry;
  registry->AddCollector(this, [this](obs::ExpositionWriter& writer) {
    CollectLiveMetrics(writer);
  });
}

void PbfsServer::CollectLiveMetrics(obs::ExpositionWriter& writer) const {
  const ServerStats s = GetStats();
  const int64_t now = NowNanos();

  struct Counter {
    const char* name;
    const char* help;
    double value;
  };
  const Counter counters[] = {
      {"pbfs_server_sessions_opened_total", "Connections accepted.",
       static_cast<double>(s.sessions_opened)},
      {"pbfs_server_sessions_closed_total", "Connections closed.",
       static_cast<double>(s.sessions_closed)},
      {"pbfs_server_evicted_total",
       "Sessions closed by least-recently-active eviction at the "
       "connection cap.",
       static_cast<double>(s.sessions_evicted)},
      {"pbfs_server_frames_rx_total", "Request frames decoded.",
       static_cast<double>(s.frames_rx)},
      {"pbfs_server_frames_tx_total", "Response frames queued.",
       static_cast<double>(s.frames_tx)},
      {"pbfs_server_protocol_errors_total",
       "Sessions closed for malformed or oversized frames.",
       static_cast<double>(s.protocol_errors)},
      {"pbfs_server_backpressure_events_total",
       "Times a session's in-flight window filled and reads paused.",
       static_cast<double>(s.backpressure_events)},
      {"pbfs_server_admitted_total",
       "Queries accepted by admission control.",
       static_cast<double>(s.admission.admitted)},
      {"pbfs_server_timed_out_total",
       "Queries whose deadline passed after admission (in queue or in "
       "the engine).",
       static_cast<double>(s.queries_timed_out)},
      {"pbfs_server_responses_dropped_total",
       "Responses for sessions that closed first.",
       static_cast<double>(s.responses_dropped)},
      {"pbfs_server_updates_total", "Edge-update frames applied.",
       static_cast<double>(s.updates_applied)},
  };
  for (const Counter& c : counters) {
    writer.BeginFamily(c.name, c.help, "counter");
    writer.Sample(c.name, {}, c.value);
  }

  writer.BeginFamily("pbfs_server_shed_total",
                     "Queries rejected by admission control, by reason.",
                     "counter");
  writer.Sample("pbfs_server_shed_total", {{"reason", "queue_full"}},
                static_cast<double>(s.admission.shed_queue_full));
  writer.Sample("pbfs_server_shed_total", {{"reason", "deadline"}},
                static_cast<double>(s.admission.shed_deadline));

  writer.BeginFamily("pbfs_server_sessions_active", "Open connections.",
                     "gauge");
  writer.Sample("pbfs_server_sessions_active", {},
                static_cast<double>(s.sessions_active));
  writer.BeginFamily("pbfs_server_queue_depth",
                     "Admitted queries awaiting submission.", "gauge");
  writer.Sample("pbfs_server_queue_depth", {},
                static_cast<double>(s.admission.depth));
  writer.BeginFamily("pbfs_server_engine_inflight",
                     "Server-submitted queries not yet completed.", "gauge");
  writer.Sample("pbfs_server_engine_inflight", {},
                static_cast<double>(s.engine_inflight));
  writer.BeginFamily("pbfs_server_admission_cost_ms",
                     "EWMA per-query service-cost estimate driving "
                     "deadline shedding.",
                     "gauge");
  writer.Sample("pbfs_server_admission_cost_ms", {}, s.admission.cost_ewma_ms);

  writer.BeginFamily("pbfs_server_request_latency_ms",
                     "Receipt-to-response latency over the rolling "
                     "window, per admission priority (shed excluded).",
                     "summary");
  for (int p = 0; p < kNumPriorities; ++p) {
    const obs::RollingWindow::Stats w = latency_windows_[p].WindowStats(now);
    const std::vector<obs::MetricLabel> labels = {
        {"priority", PriorityName(static_cast<Priority>(p))}};
    obs::ExpositionWriter::SummaryData data;
    data.sum = w.sum;
    data.count = w.count;
    if (w.count > 0) {
      data.quantiles = {{0.5, w.p50}, {0.95, w.p95}, {0.99, w.p99}};
    }
    writer.SummarySamples("pbfs_server_request_latency_ms", labels, data);
  }

  // Exemplars: the trace id of the slowest retained query per priority,
  // so a latency spike on the summary above links straight to its span
  // tree (/debug/trace?trace_id=) and slowlog line.
  writer.BeginFamily("pbfs_server_request_latency_exemplar",
                     "Wire latency (ms) of the slowest retained query per "
                     "priority; trace_id links to /debug/slowlog.",
                     "gauge");
  for (int p = 0; p < kNumPriorities; ++p) {
    const obs::QueryTraceStore::Exemplar ex =
        obs::QueryTraceStore::Get().exemplar(static_cast<uint8_t>(p));
    if (ex.trace_id == 0) continue;
    writer.Sample("pbfs_server_request_latency_exemplar",
                  {{"priority", PriorityName(static_cast<Priority>(p))},
                   {"trace_id", std::to_string(ex.trace_id)}},
                  ex.latency_ms);
  }
}

}  // namespace server
}  // namespace pbfs
