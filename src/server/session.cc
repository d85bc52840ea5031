#include "server/session.h"

#include <utility>

namespace pbfs {
namespace server {
namespace {

// The transition table IS the lifecycle: a (state, event) pair with no
// row here is ignored (e.g. any event in kClosed). kAutoResume resolves
// to kInFrame when undecoded bytes remain in rx, else kAwaitFrame.
constexpr SessionTransition kSessionTransitions[] = {
    // Receive path.
    {SessionState::kAwaitFrame, SessionEvent::kRxBytes,
     SessionState::kInFrame},
    {SessionState::kInFrame, SessionEvent::kRxBytes, SessionState::kInFrame},
    {SessionState::kInFrame, SessionEvent::kFrameDecoded, kAutoResume},
    // A protocol error closes every open state: a malformed frame is
    // caught mid-decode (kInFrame); a well-formed request the server
    // cannot serve is caught after decoding, in whatever state that
    // left the session.
    {SessionState::kAwaitFrame, SessionEvent::kDecodeError,
     SessionState::kClosed},
    {SessionState::kInFrame, SessionEvent::kDecodeError,
     SessionState::kClosed},
    {SessionState::kBackpressured, SessionEvent::kDecodeError,
     SessionState::kClosed},
    {SessionState::kDraining, SessionEvent::kDecodeError,
     SessionState::kClosed},
    // Backpressure: the window can fill with or without buffered bytes.
    {SessionState::kAwaitFrame, SessionEvent::kWindowFull,
     SessionState::kBackpressured},
    {SessionState::kInFrame, SessionEvent::kWindowFull,
     SessionState::kBackpressured},
    {SessionState::kBackpressured, SessionEvent::kWindowOpen, kAutoResume},
    // Responses may be queued in any open state.
    {SessionState::kAwaitFrame, SessionEvent::kResponseQueued,
     SessionState::kAwaitFrame},
    {SessionState::kInFrame, SessionEvent::kResponseQueued,
     SessionState::kInFrame},
    {SessionState::kBackpressured, SessionEvent::kResponseQueued,
     SessionState::kBackpressured},
    {SessionState::kDraining, SessionEvent::kResponseQueued,
     SessionState::kDraining},
    // Drain completion.
    {SessionState::kDraining, SessionEvent::kTxDrained,
     SessionState::kClosed},
    // Peer close from every open state.
    {SessionState::kAwaitFrame, SessionEvent::kPeerClosed,
     SessionState::kClosed},
    {SessionState::kInFrame, SessionEvent::kPeerClosed,
     SessionState::kClosed},
    {SessionState::kBackpressured, SessionEvent::kPeerClosed,
     SessionState::kClosed},
    {SessionState::kDraining, SessionEvent::kPeerClosed,
     SessionState::kClosed},
    // Shutdown drains every open state.
    {SessionState::kAwaitFrame, SessionEvent::kShutdown,
     SessionState::kDraining},
    {SessionState::kInFrame, SessionEvent::kShutdown,
     SessionState::kDraining},
    {SessionState::kBackpressured, SessionEvent::kShutdown,
     SessionState::kDraining},
    // Eviction reclaims the slot from every open state.
    {SessionState::kAwaitFrame, SessionEvent::kEvicted,
     SessionState::kClosed},
    {SessionState::kInFrame, SessionEvent::kEvicted, SessionState::kClosed},
    {SessionState::kBackpressured, SessionEvent::kEvicted,
     SessionState::kClosed},
    {SessionState::kDraining, SessionEvent::kEvicted, SessionState::kClosed},
    // Timers close every state that arms one.
    {SessionState::kAwaitFrame, SessionEvent::kTimeout,
     SessionState::kClosed},
    {SessionState::kInFrame, SessionEvent::kTimeout, SessionState::kClosed},
    {SessionState::kBackpressured, SessionEvent::kTimeout,
     SessionState::kClosed},
    {SessionState::kDraining, SessionEvent::kTimeout, SessionState::kClosed},
};

// Close reason recorded when a state's timer fires.
const char* TimeoutReason(SessionState state) {
  switch (state) {
    case SessionState::kAwaitFrame:
      return "idle_timeout";
    case SessionState::kInFrame:
      return "frame_timeout";
    case SessionState::kBackpressured:
      return "backpressure_timeout";
    case SessionState::kDraining:
      return "drain_timeout";
    case SessionState::kClosed:
      break;
  }
  return "timeout";
}

}  // namespace

const char* Session::StateName(SessionState state) {
  switch (state) {
    case SessionState::kAwaitFrame:
      return "AWAIT_FRAME";
    case SessionState::kInFrame:
      return "IN_FRAME";
    case SessionState::kBackpressured:
      return "BACKPRESSURED";
    case SessionState::kDraining:
      return "DRAINING";
    case SessionState::kClosed:
      return "CLOSED";
  }
  return "UNKNOWN";
}

const char* Session::EventName(SessionEvent event) {
  switch (event) {
    case SessionEvent::kRxBytes:
      return "RX_BYTES";
    case SessionEvent::kFrameDecoded:
      return "FRAME_DECODED";
    case SessionEvent::kDecodeError:
      return "DECODE_ERROR";
    case SessionEvent::kWindowFull:
      return "WINDOW_FULL";
    case SessionEvent::kWindowOpen:
      return "WINDOW_OPEN";
    case SessionEvent::kResponseQueued:
      return "RESPONSE_QUEUED";
    case SessionEvent::kTxDrained:
      return "TX_DRAINED";
    case SessionEvent::kPeerClosed:
      return "PEER_CLOSED";
    case SessionEvent::kShutdown:
      return "SHUTDOWN";
    case SessionEvent::kTimeout:
      return "TIMEOUT";
    case SessionEvent::kEvicted:
      return "EVICTED";
  }
  return "UNKNOWN";
}

std::span<const SessionTransition> Session::Transitions() {
  return kSessionTransitions;
}

Session::Session(uint64_t id, const SessionOptions& options, int64_t now_ns)
    : id_(id),
      options_(options),
      state_entered_ns_(now_ns),
      last_activity_ns_(now_ns) {}

double Session::StateTimeoutMs(SessionState state) const {
  switch (state) {
    case SessionState::kAwaitFrame:
      return options_.idle_timeout_ms;
    case SessionState::kInFrame:
      return options_.frame_timeout_ms;
    case SessionState::kBackpressured:
      return options_.backpressure_timeout_ms;
    case SessionState::kDraining:
      return options_.drain_timeout_ms;
    case SessionState::kClosed:
      break;
  }
  return 0;
}

bool Session::Fire(SessionEvent event, int64_t now_ns) {
  for (const SessionTransition& t : kSessionTransitions) {
    if (t.from != state_ || t.event != event) continue;
    SessionState to = t.to;
    if (to == kAutoResume) {
      to = rx_.empty() ? SessionState::kAwaitFrame : SessionState::kInFrame;
    }
    EnterState(to, now_ns);
    return true;
  }
  return false;  // no row: event ignored in this state
}

void Session::EnterState(SessionState next, int64_t now_ns) {
  if (next != state_) {
    state_ = next;
    // Timers arm on state *change* only: kInFrame -> kInFrame on a
    // trickle of bytes must not refresh the frame timer, or a
    // one-byte-per-second peer holds a slot forever.
    state_entered_ns_ = now_ns;
  }
  if (state_ == SessionState::kDraining && tx_.empty() && inflight_ == 0) {
    close_reason_ = "drained";
    Fire(SessionEvent::kTxDrained, now_ns);
  }
}

void Session::DecodeLoop(int64_t now_ns, std::vector<Request>* out) {
  while (state_ == SessionState::kInFrame && !rx_.empty()) {
    Request req;
    size_t consumed = 0;
    const DecodeStatus s = DecodeRequest(rx_, options_.max_frame_bytes, &req,
                                         &consumed, &decode_error_);
    if (s == DecodeStatus::kNeedMore) break;
    if (s != DecodeStatus::kOk) {
      close_reason_ = "protocol_error";
      Fire(SessionEvent::kDecodeError, now_ns);
      break;
    }
    rx_.erase(0, consumed);
    ++inflight_;  // the slot is released by OnResponseQueued
    out->push_back(std::move(req));
    Fire(SessionEvent::kFrameDecoded, now_ns);
    if (inflight_ >= options_.max_inflight &&
        state_ != SessionState::kClosed) {
      ++backpressure_events_;
      Fire(SessionEvent::kWindowFull, now_ns);
    }
  }
}

bool Session::OnBytes(std::string_view data, int64_t now_ns,
                      std::vector<Request>* out) {
  if (state_ == SessionState::kClosed) return false;
  if (state_ == SessionState::kDraining) return true;  // stray bytes dropped
  last_activity_ns_ = now_ns;
  rx_.append(data);
  Fire(SessionEvent::kRxBytes, now_ns);
  DecodeLoop(now_ns, out);
  return state_ != SessionState::kClosed;
}

void Session::OnInvalidRequest(std::string error, int64_t now_ns) {
  if (Fire(SessionEvent::kDecodeError, now_ns)) {
    close_reason_ = "protocol_error";
    decode_error_ = std::move(error);
  }
}

void Session::OnPeerClosed(int64_t now_ns) {
  if (Fire(SessionEvent::kPeerClosed, now_ns)) {
    close_reason_ = "peer_closed";
  }
}

void Session::OnShutdown(int64_t now_ns) {
  shutdown_requested_ = true;
  Fire(SessionEvent::kShutdown, now_ns);
}

void Session::OnEvicted(int64_t now_ns) {
  if (Fire(SessionEvent::kEvicted, now_ns)) {
    close_reason_ = "evicted";
  }
}

bool Session::OnTick(int64_t now_ns) {
  if (state_ == SessionState::kClosed) return false;
  // An idle-state session with requests still in flight is waiting on
  // the engine, not on the peer; the admission deadline machinery
  // bounds that wait, so the idle timer only fires on truly idle
  // connections.
  if (state_ == SessionState::kAwaitFrame && inflight_ > 0) return true;
  const double timeout_ms = StateTimeoutMs(state_);
  if (timeout_ms > 0 &&
      static_cast<double>(now_ns - state_entered_ns_) >= timeout_ms * 1e6) {
    const char* reason = TimeoutReason(state_);
    if (Fire(SessionEvent::kTimeout, now_ns)) close_reason_ = reason;
  }
  return state_ != SessionState::kClosed;
}

void Session::OnResponseQueued(std::string&& encoded_frame, int64_t now_ns,
                               std::vector<Request>* resumed) {
  if (state_ == SessionState::kClosed) return;
  last_activity_ns_ = now_ns;
  if (tx_.empty()) {
    tx_ = std::move(encoded_frame);
  } else {
    tx_.append(encoded_frame);
  }
  if (inflight_ > 0) --inflight_;
  Fire(SessionEvent::kResponseQueued, now_ns);
  if (state_ == SessionState::kBackpressured &&
      inflight_ <= options_.resume_inflight) {
    Fire(SessionEvent::kWindowOpen, now_ns);
    if (resumed != nullptr) DecodeLoop(now_ns, resumed);
  }
}

void Session::ConsumeTx(size_t n, int64_t now_ns) {
  if (n > 0) last_activity_ns_ = now_ns;
  tx_.erase(0, n);
  if (state_ == SessionState::kDraining && tx_.empty() && inflight_ == 0) {
    close_reason_ = "drained";
    Fire(SessionEvent::kTxDrained, now_ns);
  }
}

bool Session::WantRead() const {
  return state_ == SessionState::kAwaitFrame ||
         state_ == SessionState::kInFrame;
}

}  // namespace server
}  // namespace pbfs
