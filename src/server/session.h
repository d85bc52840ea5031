// Per-connection session state machine.
//
// Modeled on the osmo-cbc FSM idiom (SNIPPETS.md): the states, the
// events, the legal transitions, and the per-state timeouts are all
// explicit named tables rather than flag soup, so the lifecycle of a
// connection can be read off `kSessionTransitions` below, asserted in
// unit tests, and printed in docs/server.md. The machine is
// transport-agnostic and clock-agnostic — the poll loop owns the fd
// and passes monotonic nanoseconds into every entry point, so fake
// clocks drive the timeout tests with no real sleeps (the
// StallWatchdog pattern).
//
//   kAwaitFrame ---rx bytes---------------> kInFrame
//   kInFrame ----frame decoded, rx empty--> kAwaitFrame
//   kInFrame ----window full--------------> kBackpressured
//   kBackpressured --window reopened------> kInFrame / kAwaitFrame
//   any ---------shutdown-----------------> kDraining
//   kDraining ---tx flushed & no inflight-> kClosed
//   any ---------timeout / peer close / protocol error --> kClosed
//
// Backpressure: each decoded request occupies one window slot until
// its response is queued. When the window fills, the session stops
// wanting reads (`WantRead()` goes false and the poll loop drops
// POLLIN) and stops decoding buffered frames; responses draining the
// window below the low-water mark reopen it and resume decode of
// whatever was already buffered.
//
// Per-state timeouts (kSessionTimeouts): kAwaitFrame bounds idle
// connections, kInFrame bounds half-sent frames, kBackpressured bounds
// clients that overrun their window and then stall, kDraining bounds
// shutdown flush. Every timeout fires kTimeout, which closes.
#ifndef PBFS_SERVER_SESSION_H_
#define PBFS_SERVER_SESSION_H_

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "server/protocol.h"

namespace pbfs {
namespace server {

enum class SessionState : uint8_t {
  kAwaitFrame,     // rx buffer empty, window open, waiting for a frame
  kInFrame,        // rx buffer holds a partial (or undecoded) frame
  kBackpressured,  // in-flight window full: reads paused
  kDraining,       // shutdown requested: flush tx, finish in-flight
  kClosed,         // terminal
};
inline constexpr int kNumSessionStates = 5;

enum class SessionEvent : uint8_t {
  kRxBytes,        // bytes arrived from the peer
  kFrameDecoded,   // one full frame left the rx buffer
  kDecodeError,    // malformed/oversized frame or unservable request
  kWindowFull,     // in-flight request window hit its cap
  kWindowOpen,     // window drained to the low-water mark
  kResponseQueued, // a response was appended to tx
  kTxDrained,      // tx flushed and no requests in flight
  kPeerClosed,     // EOF/reset from the peer
  kShutdown,       // server is stopping
  kTimeout,        // the active state's timer expired
  kEvicted,        // server at its connection cap reclaimed this slot
};

// One row of the transition table. `to == kAutoResume` (sentinel) means
// the destination depends on the rx buffer: kInFrame when undecoded
// bytes remain, kAwaitFrame otherwise.
struct SessionTransition {
  SessionState from;
  SessionEvent event;
  SessionState to;
};

// Sentinel destination, resolved at fire time (see above).
inline constexpr auto kAutoResume = static_cast<SessionState>(0xFF);

// Per-state timeout table row: entering `state` arms a timer of
// `SessionOptions::*` milliseconds (named by `option`); expiry fires
// kTimeout with `reason` recorded as the close reason.
struct SessionTimeout {
  SessionState state;
  const char* reason;
};

struct SessionOptions {
  // In-flight request window per connection. A decoded request holds a
  // slot until its response is queued; reads pause at the cap and
  // resume at resume_inflight.
  size_t max_inflight = 64;
  size_t resume_inflight = 32;
  // Largest request frame this session will buffer.
  size_t max_frame_bytes = kMaxRequestBytes;
  // Per-state timers, milliseconds; <= 0 disables that timer.
  double idle_timeout_ms = 120000;         // kAwaitFrame
  double frame_timeout_ms = 10000;         // kInFrame
  double backpressure_timeout_ms = 60000;  // kBackpressured
  double drain_timeout_ms = 5000;          // kDraining
};

class Session {
 public:
  Session(uint64_t id, const SessionOptions& options, int64_t now_ns);

  // ---- Input path (poll loop) ----

  // Feed raw bytes; every fully decoded request is appended to *out
  // (each already holds a window slot — see OnResponseQueued). Returns
  // false when the session closed (protocol error): drop the fd.
  bool OnBytes(std::string_view data, int64_t now_ns,
               std::vector<Request>* out);
  // A decoded request the server refuses to serve (an edge update naming
  // a vertex outside the graph): a protocol error like a malformed
  // frame. Closes the session from every open state; `error` becomes
  // decode_error().
  void OnInvalidRequest(std::string error, int64_t now_ns);
  void OnPeerClosed(int64_t now_ns);
  void OnShutdown(int64_t now_ns);
  // Least-recently-active eviction: the server at its connection cap
  // fires this to reclaim the slot. Closes from every open state.
  void OnEvicted(int64_t now_ns);
  // Fire the active state's timer if it expired. Returns true while
  // the session is still open.
  bool OnTick(int64_t now_ns);

  // ---- Output path ----

  // Queue one encoded response frame; releases the window slot of the
  // request it answers. The frame is moved into an empty tx buffer and
  // appended only behind bytes still pending, so the common case copies
  // nothing. Reopening the window may resume decoding of
  // already-buffered frames — those requests are appended to *resumed
  // (may be null only if the caller knows the window cannot reopen).
  void OnResponseQueued(std::string&& encoded_frame, int64_t now_ns,
                        std::vector<Request>* resumed);

  // ---- Poll-loop surface ----

  bool WantRead() const;
  bool HasTx() const { return !tx_.empty(); }
  std::string_view Tx() const { return tx_; }
  // The kernel accepted `n` bytes of Tx().
  void ConsumeTx(size_t n, int64_t now_ns);

  // ---- Introspection ----

  uint64_t id() const { return id_; }
  SessionState state() const { return state_; }
  size_t inflight() const { return inflight_; }
  size_t rx_buffered() const { return rx_.size(); }
  // Monotonic timestamp of the last peer interaction (bytes received,
  // response queued, or tx progress); construction time before any.
  // The eviction policy's sort key.
  int64_t last_activity_ns() const { return last_activity_ns_; }
  // Why the session reached kClosed ("" while open): "peer_closed",
  // "protocol_error", "idle_timeout", "frame_timeout",
  // "backpressure_timeout", "drain_timeout", "drained", "evicted".
  const std::string& close_reason() const { return close_reason_; }
  // Last protocol decode error, for logs/metrics.
  const std::string& decode_error() const { return decode_error_; }
  // Count of kWindowFull firings (backpressure episodes).
  uint64_t backpressure_events() const { return backpressure_events_; }

  static const char* StateName(SessionState state);
  static const char* EventName(SessionEvent event);
  // The full transition table, exported so tests (and docs) can assert
  // against the machine actually running.
  static std::span<const SessionTransition> Transitions();

 private:
  // Applies the (state, event) transition from the table; events with
  // no row in the current state are ignored. Returns true if a row
  // matched.
  bool Fire(SessionEvent event, int64_t now_ns);
  void EnterState(SessionState next, int64_t now_ns);
  // Decode as many buffered frames as the window allows.
  void DecodeLoop(int64_t now_ns, std::vector<Request>* out);
  // Timeout (ms) configured for `state`; <= 0 = no timer.
  double StateTimeoutMs(SessionState state) const;

  const uint64_t id_;
  const SessionOptions options_;
  SessionState state_ = SessionState::kAwaitFrame;
  int64_t state_entered_ns_ = 0;
  int64_t last_activity_ns_ = 0;
  std::string rx_;
  std::string tx_;
  size_t inflight_ = 0;
  uint64_t backpressure_events_ = 0;
  std::string close_reason_;
  std::string decode_error_;
  bool shutdown_requested_ = false;
};

}  // namespace server
}  // namespace pbfs

#endif  // PBFS_SERVER_SESSION_H_
