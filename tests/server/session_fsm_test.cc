// Session FSM suite: timeout transitions, backpressure window
// open/close, drain, and protocol-error paths — all driven by a fake
// clock (plain int64_t nanoseconds passed into every entry point, the
// StallWatchdog pattern), so nothing here sleeps.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "server/protocol.h"
#include "server/session.h"

namespace pbfs {
namespace server {
namespace {

constexpr int64_t kMs = 1000000;

// One encoded minimal kLevels query frame.
std::string QueryFrame(uint64_t request_id) {
  QueryRequest req;
  req.request_id = request_id;
  std::string wire;
  EncodeQueryRequest(req, &wire);
  return wire;
}

SessionOptions SmallTimeouts() {
  SessionOptions o;
  o.idle_timeout_ms = 100;
  o.frame_timeout_ms = 10;
  o.backpressure_timeout_ms = 50;
  o.drain_timeout_ms = 20;
  return o;
}

TEST(SessionFsmTest, TableHasNoTransitionOutOfClosed) {
  for (const SessionTransition& t : Session::Transitions()) {
    EXPECT_NE(t.from, SessionState::kClosed)
        << "row " << Session::EventName(t.event);
    // Destinations are real states or the documented sentinel.
    EXPECT_TRUE(t.to == kAutoResume ||
                static_cast<int>(t.to) < kNumSessionStates);
  }
  // Names are total.
  for (int s = 0; s < kNumSessionStates; ++s) {
    EXPECT_STRNE(Session::StateName(static_cast<SessionState>(s)),
                 "UNKNOWN");
  }
}

TEST(SessionFsmTest, IdleTimeoutClosesExactlyAtThreshold) {
  Session s(1, SmallTimeouts(), 0);
  EXPECT_EQ(s.state(), SessionState::kAwaitFrame);
  EXPECT_TRUE(s.OnTick(99 * kMs));
  EXPECT_EQ(s.state(), SessionState::kAwaitFrame);
  EXPECT_FALSE(s.OnTick(100 * kMs));
  EXPECT_EQ(s.state(), SessionState::kClosed);
  EXPECT_EQ(s.close_reason(), "idle_timeout");
}

TEST(SessionFsmTest, PartialFrameTimesOutWithoutTrickleReset) {
  Session s(1, SmallTimeouts(), 0);
  const std::string frame = QueryFrame(1);
  std::vector<Request> out;
  // First byte arrives at t=0: kAwaitFrame -> kInFrame arms the timer.
  ASSERT_TRUE(s.OnBytes(frame.substr(0, 1), 0, &out));
  EXPECT_EQ(s.state(), SessionState::kInFrame);
  // A trickle byte at t=9ms must NOT refresh the frame timer.
  ASSERT_TRUE(s.OnBytes(frame.substr(1, 1), 9 * kMs, &out));
  EXPECT_FALSE(s.OnTick(10 * kMs));
  EXPECT_EQ(s.state(), SessionState::kClosed);
  EXPECT_EQ(s.close_reason(), "frame_timeout");
  EXPECT_TRUE(out.empty());
}

TEST(SessionFsmTest, CompleteFrameReturnsToAwaitAndDisarmsFrameTimer) {
  Session s(1, SmallTimeouts(), 0);
  const std::string frame = QueryFrame(42);
  std::vector<Request> out;
  ASSERT_TRUE(s.OnBytes(frame.substr(0, 5), 0, &out));
  EXPECT_EQ(s.state(), SessionState::kInFrame);
  ASSERT_TRUE(s.OnBytes(frame.substr(5), 5 * kMs, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].query.request_id, 42u);
  EXPECT_EQ(s.state(), SessionState::kAwaitFrame);
  EXPECT_EQ(s.inflight(), 1u);
  // The frame timer is gone; the idle timer does not fire while a
  // request is in flight (the engine owns that wait).
  EXPECT_TRUE(s.OnTick(500 * kMs));
  EXPECT_EQ(s.state(), SessionState::kAwaitFrame);
}

TEST(SessionFsmTest, IdleTimeoutAppliesOnceWindowEmpties) {
  SessionOptions o = SmallTimeouts();
  Session s(1, o, 0);
  std::vector<Request> out;
  ASSERT_TRUE(s.OnBytes(QueryFrame(1), 0, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(s.OnTick(400 * kMs));  // inflight > 0: no idle close
  std::vector<Request> resumed;
  s.OnResponseQueued("resp", 400 * kMs, &resumed);
  EXPECT_EQ(s.inflight(), 0u);
  // Window empty again; idle timer runs from kAwaitFrame entry (t=0,
  // the state never changed), so it fires on the next tick.
  EXPECT_FALSE(s.OnTick(401 * kMs));
  EXPECT_EQ(s.close_reason(), "idle_timeout");
}

TEST(SessionFsmTest, WindowFullPausesReadsAndResumesAtLowWater) {
  SessionOptions o = SmallTimeouts();
  o.max_inflight = 2;
  o.resume_inflight = 1;
  Session s(1, o, 0);
  std::string three;
  three += QueryFrame(1);
  three += QueryFrame(2);
  three += QueryFrame(3);
  std::vector<Request> out;
  ASSERT_TRUE(s.OnBytes(three, 0, &out));
  // Two decoded, the third stays buffered behind the full window.
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(s.state(), SessionState::kBackpressured);
  EXPECT_FALSE(s.WantRead());
  EXPECT_EQ(s.inflight(), 2u);
  EXPECT_GT(s.rx_buffered(), 0u);
  EXPECT_EQ(s.backpressure_events(), 1u);

  // One response: inflight 1 == low water, window reopens, the
  // buffered frame decodes — and refills the window.
  std::vector<Request> resumed;
  s.OnResponseQueued("r1", 1 * kMs, &resumed);
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_EQ(resumed[0].query.request_id, 3u);
  EXPECT_EQ(s.state(), SessionState::kBackpressured);
  EXPECT_EQ(s.backpressure_events(), 2u);

  // Draining the window with no bytes buffered reopens for reads.
  resumed.clear();
  s.OnResponseQueued("r2", 2 * kMs, &resumed);
  EXPECT_TRUE(resumed.empty());
  s.OnResponseQueued("r3", 2 * kMs, &resumed);
  EXPECT_TRUE(resumed.empty());
  EXPECT_EQ(s.inflight(), 0u);
  EXPECT_EQ(s.state(), SessionState::kAwaitFrame);
  EXPECT_TRUE(s.WantRead());
}

// A response queued on an empty tx buffer is moved in; one queued while
// bytes are still pending is appended behind them. Both paths must put
// the same bytes on the wire in the same order.
TEST(SessionFsmTest, MovedAndAppendedFramesDeliverIdenticalTx) {
  std::string frames[3];
  std::string requests;
  for (uint64_t id = 1; id <= 3; ++id) {
    QueryResponse resp;
    resp.request_id = id;
    resp.levels.assign(100 * id, static_cast<Level>(id));
    EncodeQueryResponse(resp, &frames[id - 1]);
    requests += QueryFrame(id);
  }
  std::vector<Request> out;
  std::vector<Request> resumed;
  // Pending path: no send between responses, so frames 2 and 3 are
  // appended behind frame 1.
  Session appended(1, SmallTimeouts(), 0);
  ASSERT_TRUE(appended.OnBytes(requests, 0, &out));
  for (const std::string& frame : frames) {
    appended.OnResponseQueued(std::string(frame), 1 * kMs, &resumed);
  }
  EXPECT_EQ(appended.Tx(), frames[0] + frames[1] + frames[2]);
  // Empty path: the socket takes everything between responses, so
  // each frame is moved into an empty buffer.
  Session moved(2, SmallTimeouts(), 0);
  ASSERT_TRUE(moved.OnBytes(requests, 0, &out));
  std::string wire;
  for (const std::string& frame : frames) {
    moved.OnResponseQueued(std::string(frame), 1 * kMs, &resumed);
    EXPECT_EQ(moved.Tx(), frame);
    wire += moved.Tx();
    moved.ConsumeTx(moved.Tx().size(), 2 * kMs);
  }
  EXPECT_EQ(wire, appended.Tx());
  EXPECT_EQ(moved.inflight(), 0u);
  EXPECT_EQ(appended.inflight(), 0u);
}

TEST(SessionFsmTest, BackpressureTimeoutCloses) {
  SessionOptions o = SmallTimeouts();
  o.max_inflight = 1;
  o.resume_inflight = 0;
  Session s(1, o, 0);
  std::vector<Request> out;
  ASSERT_TRUE(s.OnBytes(QueryFrame(1), 0, &out));
  EXPECT_EQ(s.state(), SessionState::kBackpressured);
  EXPECT_TRUE(s.OnTick(49 * kMs));
  EXPECT_FALSE(s.OnTick(50 * kMs));
  EXPECT_EQ(s.close_reason(), "backpressure_timeout");
}

TEST(SessionFsmTest, ShutdownDrainsThenCloses) {
  Session s(1, SmallTimeouts(), 0);
  std::vector<Request> out;
  ASSERT_TRUE(s.OnBytes(QueryFrame(1), 0, &out));
  std::vector<Request> resumed;
  s.OnResponseQueued("pending-bytes", 1 * kMs, &resumed);
  s.OnShutdown(2 * kMs);
  EXPECT_EQ(s.state(), SessionState::kDraining);
  EXPECT_FALSE(s.WantRead());
  // Partial flush keeps draining; the rest closes it.
  s.ConsumeTx(3, 3 * kMs);
  EXPECT_EQ(s.state(), SessionState::kDraining);
  s.ConsumeTx(s.Tx().size(), 4 * kMs);
  EXPECT_EQ(s.state(), SessionState::kClosed);
  EXPECT_EQ(s.close_reason(), "drained");
}

TEST(SessionFsmTest, ShutdownWithNothingPendingClosesImmediately) {
  Session s(1, SmallTimeouts(), 0);
  s.OnShutdown(1 * kMs);
  EXPECT_EQ(s.state(), SessionState::kClosed);
  EXPECT_EQ(s.close_reason(), "drained");
}

TEST(SessionFsmTest, ShutdownWaitsForInflightResponses) {
  Session s(1, SmallTimeouts(), 0);
  std::vector<Request> out;
  ASSERT_TRUE(s.OnBytes(QueryFrame(1), 0, &out));
  ASSERT_EQ(s.inflight(), 1u);
  s.OnShutdown(1 * kMs);
  // In flight: stays draining even with empty tx.
  EXPECT_EQ(s.state(), SessionState::kDraining);
  std::vector<Request> resumed;
  s.OnResponseQueued("late-response", 2 * kMs, &resumed);
  EXPECT_EQ(s.state(), SessionState::kDraining);  // tx now pending
  s.ConsumeTx(s.Tx().size(), 3 * kMs);
  EXPECT_EQ(s.state(), SessionState::kClosed);
  EXPECT_EQ(s.close_reason(), "drained");
}

TEST(SessionFsmTest, DrainTimeoutBoundsShutdown) {
  Session s(1, SmallTimeouts(), 0);
  std::vector<Request> out;
  ASSERT_TRUE(s.OnBytes(QueryFrame(1), 0, &out));
  std::vector<Request> resumed;
  s.OnResponseQueued("unconsumed", 1 * kMs, &resumed);
  s.OnShutdown(2 * kMs);
  EXPECT_EQ(s.state(), SessionState::kDraining);
  EXPECT_TRUE(s.OnTick(21 * kMs));
  EXPECT_FALSE(s.OnTick(22 * kMs));  // drain_timeout_ms=20 after entry
  EXPECT_EQ(s.close_reason(), "drain_timeout");
}

TEST(SessionFsmTest, MalformedFrameClosesWithProtocolError) {
  Session s(1, SmallTimeouts(), 0);
  std::string bad = QueryFrame(1);
  bad[4 + 8] = 99;  // unknown message kind
  std::vector<Request> out;
  EXPECT_FALSE(s.OnBytes(bad, 0, &out));
  EXPECT_EQ(s.state(), SessionState::kClosed);
  EXPECT_EQ(s.close_reason(), "protocol_error");
  EXPECT_FALSE(s.decode_error().empty());
  EXPECT_TRUE(out.empty());
}

// A well-formed request the server refuses to serve (an edge update
// naming a vertex outside the graph) closes the session as a protocol
// error from whatever open state decoding left it in.
TEST(SessionFsmTest, InvalidRequestClosesWithProtocolError) {
  SessionOptions o = SmallTimeouts();
  o.max_inflight = 2;
  o.resume_inflight = 1;
  {
    Session s(1, o, 0);
    std::vector<Request> out;
    ASSERT_TRUE(s.OnBytes(QueryFrame(1), 0, &out));
    ASSERT_EQ(s.state(), SessionState::kAwaitFrame);
    s.OnInvalidRequest("endpoint out of range", 1 * kMs);
    EXPECT_EQ(s.state(), SessionState::kClosed);
    EXPECT_EQ(s.close_reason(), "protocol_error");
    EXPECT_EQ(s.decode_error(), "endpoint out of range");
  }
  {
    Session s(2, o, 0);
    std::vector<Request> out;
    ASSERT_TRUE(s.OnBytes(QueryFrame(1) + QueryFrame(2), 0, &out));
    ASSERT_EQ(s.state(), SessionState::kBackpressured);
    s.OnInvalidRequest("endpoint out of range", 1 * kMs);
    EXPECT_EQ(s.state(), SessionState::kClosed);
    EXPECT_EQ(s.close_reason(), "protocol_error");
  }
}

TEST(SessionFsmTest, OversizedFrameClosesWithProtocolError) {
  SessionOptions o = SmallTimeouts();
  o.max_frame_bytes = 64;
  Session s(1, o, 0);
  QueryRequest req;
  req.request_id = 1;
  req.targets.assign(100, 3);  // frame well over 64 bytes
  std::string wire;
  EncodeQueryRequest(req, &wire);
  std::vector<Request> out;
  EXPECT_FALSE(s.OnBytes(wire, 0, &out));
  EXPECT_EQ(s.close_reason(), "protocol_error");
}

TEST(SessionFsmTest, PeerCloseFromEveryOpenState) {
  // kAwaitFrame.
  Session a(1, SmallTimeouts(), 0);
  a.OnPeerClosed(0);
  EXPECT_EQ(a.state(), SessionState::kClosed);
  EXPECT_EQ(a.close_reason(), "peer_closed");
  // kInFrame.
  Session b(2, SmallTimeouts(), 0);
  std::vector<Request> out;
  ASSERT_TRUE(b.OnBytes(QueryFrame(1).substr(0, 2), 0, &out));
  b.OnPeerClosed(0);
  EXPECT_EQ(b.state(), SessionState::kClosed);
  // Events after close are ignored, not resurrecting.
  b.OnShutdown(0);
  EXPECT_FALSE(b.OnTick(1000 * kMs));
  EXPECT_EQ(b.state(), SessionState::kClosed);
}

TEST(SessionFsmTest, EvictionClosesFromEveryOpenState) {
  // kAwaitFrame.
  Session a(1, SmallTimeouts(), 0);
  a.OnEvicted(1 * kMs);
  EXPECT_EQ(a.state(), SessionState::kClosed);
  EXPECT_EQ(a.close_reason(), "evicted");

  // kInFrame.
  Session b(2, SmallTimeouts(), 0);
  std::vector<Request> out;
  ASSERT_TRUE(b.OnBytes(QueryFrame(1).substr(0, 2), 0, &out));
  ASSERT_EQ(b.state(), SessionState::kInFrame);
  b.OnEvicted(1 * kMs);
  EXPECT_EQ(b.state(), SessionState::kClosed);
  EXPECT_EQ(b.close_reason(), "evicted");

  // kBackpressured.
  SessionOptions o = SmallTimeouts();
  o.max_inflight = 1;
  o.resume_inflight = 0;
  Session c(3, o, 0);
  ASSERT_TRUE(c.OnBytes(QueryFrame(1), 0, &out));
  ASSERT_EQ(c.state(), SessionState::kBackpressured);
  c.OnEvicted(1 * kMs);
  EXPECT_EQ(c.state(), SessionState::kClosed);
  EXPECT_EQ(c.close_reason(), "evicted");

  // kDraining.
  Session d(4, SmallTimeouts(), 0);
  out.clear();
  ASSERT_TRUE(d.OnBytes(QueryFrame(1), 0, &out));
  d.OnShutdown(1 * kMs);
  ASSERT_EQ(d.state(), SessionState::kDraining);
  d.OnEvicted(2 * kMs);
  EXPECT_EQ(d.state(), SessionState::kClosed);
  EXPECT_EQ(d.close_reason(), "evicted");

  // Already closed: ignored, close_reason untouched.
  Session e(5, SmallTimeouts(), 0);
  e.OnPeerClosed(0);
  e.OnEvicted(1 * kMs);
  EXPECT_EQ(e.close_reason(), "peer_closed");
}

// last_activity_ns drives the server's least-recently-active victim
// choice; it must advance on every sign of life — received bytes,
// queued responses, consumed tx — and on nothing else.
TEST(SessionFsmTest, LastActivityTracksTraffic) {
  Session s(1, SmallTimeouts(), 7 * kMs);
  EXPECT_EQ(s.last_activity_ns(), 7 * kMs);

  std::vector<Request> out;
  ASSERT_TRUE(s.OnBytes(QueryFrame(1), 10 * kMs, &out));
  EXPECT_EQ(s.last_activity_ns(), 10 * kMs);

  // Ticks are the poll loop's clock, not peer traffic.
  EXPECT_TRUE(s.OnTick(20 * kMs));
  EXPECT_EQ(s.last_activity_ns(), 10 * kMs);

  std::vector<Request> resumed;
  s.OnResponseQueued("resp", 30 * kMs, &resumed);
  EXPECT_EQ(s.last_activity_ns(), 30 * kMs);

  // A zero-byte flush is not activity; a real one is.
  s.ConsumeTx(0, 40 * kMs);
  EXPECT_EQ(s.last_activity_ns(), 30 * kMs);
  s.ConsumeTx(1, 41 * kMs);
  EXPECT_EQ(s.last_activity_ns(), 41 * kMs);
}

}  // namespace
}  // namespace server
}  // namespace pbfs
