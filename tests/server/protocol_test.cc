// Protocol codec property suite: randomized round-trip corpus plus
// malformed / truncated / oversized-frame rejection. All randomness is
// a pure function of PBFS_DIFF_SEED and every assertion carries the
// differential harness's reproduction banner, so a codec failure
// replays exactly like a BFS divergence does.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "differential/diff_util.h"
#include "server/protocol.h"
#include "server/server_test_util.h"
#include "util/rng.h"

namespace pbfs {
namespace server {
namespace {

using diff::NumTrials;
using diff::ReproNote;
using diff::TrialSeed;

QueryResponse RandomQueryResponse(Rng& rng, uint64_t request_id) {
  QueryResponse resp;
  resp.request_id = request_id;
  resp.type = static_cast<QueryType>(rng.NextBounded(5));
  resp.status = static_cast<QueryStatus>(rng.NextBounded(5));
  resp.sketch_resolved = rng.NextBounded(2) == 1;
  resp.snapshot_version = rng.Next();
  resp.distance = static_cast<Level>(rng.NextBounded(0x10000));
  resp.bound_lower = static_cast<Level>(rng.NextBounded(0x10000));
  resp.bound_upper = static_cast<Level>(rng.NextBounded(0x10000));
  resp.vertices_reached = rng.Next();
  const size_t num_levels = rng.NextBounded(300);
  for (size_t i = 0; i < num_levels; ++i) {
    resp.levels.push_back(static_cast<Level>(rng.NextBounded(0x10000)));
  }
  const size_t num_reachable = rng.NextBounded(16);
  for (size_t i = 0; i < num_reachable; ++i) {
    resp.reachable.push_back(static_cast<uint8_t>(rng.NextBounded(2)));
  }
  const size_t num_khop = rng.NextBounded(12);
  for (size_t i = 0; i < num_khop; ++i) {
    resp.khop_sizes.push_back(rng.Next());
  }
  return resp;
}

UpdateRequest RandomUpdateRequest(Rng& rng, uint64_t request_id) {
  UpdateRequest req;
  req.request_id = request_id;
  const size_t count = rng.NextBounded(64);
  for (size_t i = 0; i < count; ++i) {
    EdgeUpdate u;
    u.u = static_cast<Vertex>(rng.NextBounded(1 << 20));
    u.v = static_cast<Vertex>(rng.NextBounded(1 << 20));
    u.insert = rng.NextBounded(2) == 1;
    req.updates.push_back(u);
  }
  return req;
}

// Bytes from a hex string; whitespace is ignored so frames can be
// written field by field.
std::string FromHex(std::string_view hex) {
  std::string bytes;
  int high = -1;
  for (char c : hex) {
    if (c == ' ' || c == '\n') continue;
    const int nibble = c <= '9' ? c - '0' : c - 'a' + 10;
    if (high < 0) {
      high = nibble;
    } else {
      bytes.push_back(static_cast<char>(high * 16 + nibble));
      high = -1;
    }
  }
  return bytes;
}

// ---- Golden frames: the wire format, byte for byte ----
//
// Each frame below is written out by hand from the layout in
// protocol.h, one field per line, little-endian. An encoder change
// that alters a single byte fails here, whatever it round-trips to.

TEST(ProtocolGoldenTest, QueryResponseWithEveryArray) {
  QueryResponse resp;
  resp.request_id = 0x0807060504030201;
  resp.type = QueryType::kLevels;
  resp.status = QueryStatus::kOk;
  resp.sketch_resolved = true;
  resp.snapshot_version = 0x1122334455667788;
  resp.distance = 0x0102;
  resp.bound_lower = 0x0003;
  resp.bound_upper = 0xFFFF;
  resp.vertices_reached = 0x0000000100000002;
  resp.levels = {0x0000, 0x0001, 0xFFFF, 0x1234};
  resp.reachable = {1, 0, 1};
  resp.khop_sizes = {0x0102030405060708, 0x2};
  const std::string golden = FromHex(
      "49000000"                  // payload_len = 73
      "0102030405060708"          // request_id
      "01"                        // kind = kQuery
      "00"                        // query_type = kLevels
      "00"                        // status = kOk
      "01"                        // sketch_resolved
      "8877665544332211"          // snapshot_version
      "0201"                      // distance
      "0300"                      // bound_lower
      "ffff"                      // bound_upper
      "0200000001000000"          // vertices_reached
      "04000000 0000 0100 ffff 3412"  // levels
      "03000000 01 00 01"             // reachable
      "02000000 0807060504030201 0200000000000000");  // khop_sizes
  std::string wire;
  EncodeQueryResponse(resp, &wire);
  EXPECT_EQ(wire, golden);
  Response got;
  size_t consumed = 0;
  ASSERT_EQ(DecodeResponse(golden, kMaxResponseBytes, &got, &consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(consumed, golden.size());
  EXPECT_EQ(got.kind, MessageKind::kQuery);
  EXPECT_EQ(got.query, resp);
}

TEST(ProtocolGoldenTest, QueryRequestWithTargetsAndTraceBlock) {
  QueryRequest req;
  req.request_id = 42;
  req.type = QueryType::kDistances;
  req.priority = Priority::kHigh;
  req.source = 0x00010203;
  req.deadline_ms = 250;
  req.max_hops = 5;
  req.tolerance = 0x0100;
  req.targets = {7, 0xDEADBEEF};
  req.trace_id = 0x0123456789ABCDEF;
  req.trace_sampled = true;
  const std::string golden = FromHex(
      "2c000000"                  // payload_len = 44
      "2a00000000000000"          // request_id
      "01"                        // kind = kQuery
      "01"                        // query_type = kDistances
      "00"                        // priority = kHigh
      "03020100"                  // source
      "fa000000"                  // deadline_ms
      "0500"                      // max_hops
      "0001"                      // tolerance
      "02000000 07000000 efbeadde"  // targets
      "01 efcdab8967452301");       // trace block: sampled, trace_id
  std::string wire;
  EncodeQueryRequest(req, &wire);
  EXPECT_EQ(wire, golden);
  Request got;
  size_t consumed = 0;
  ASSERT_EQ(DecodeRequest(golden, kMaxRequestBytes, &got, &consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(consumed, golden.size());
  EXPECT_EQ(got.kind, MessageKind::kQuery);
  EXPECT_EQ(got.query, req);
}

TEST(ProtocolGoldenTest, UpdateRequest) {
  UpdateRequest req;
  req.request_id = 0x0102;
  req.updates = {{1, 0x00ABCDEF, true}, {0xFFFFFFFF, 3, false}};
  const std::string golden = FromHex(
      "1f000000"                  // payload_len = 31
      "0201000000000000"          // request_id
      "02"                        // kind = kEdgeUpdates
      "02000000"                  // num_updates
      "01000000 efcdab00 01"      // {u, v, insert}
      "ffffffff 03000000 00");
  std::string wire;
  EncodeUpdateRequest(req, &wire);
  EXPECT_EQ(wire, golden);
  Request got;
  size_t consumed = 0;
  ASSERT_EQ(DecodeRequest(golden, kMaxRequestBytes, &got, &consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(consumed, golden.size());
  EXPECT_EQ(got.kind, MessageKind::kEdgeUpdates);
  EXPECT_TRUE(got.updates == req);
}

TEST(ProtocolTest, QueryRequestRoundTrip) {
  for (int trial = 0; trial < NumTrials(); ++trial) {
    const uint64_t seed = TrialSeed(static_cast<uint64_t>(trial));
    const std::string note = ReproNote(seed);
    Rng rng(seed);
    for (int i = 0; i < 200; ++i) {
      const QueryRequest sent =
          RandomQueryRequest(rng, 1 << 20, rng.Next());
      std::string wire;
      EncodeQueryRequest(sent, &wire);
      Request got;
      size_t consumed = 0;
      std::string error;
      ASSERT_EQ(DecodeRequest(wire, kMaxRequestBytes, &got, &consumed,
                              &error),
                DecodeStatus::kOk)
          << error << " " << note;
      ASSERT_EQ(consumed, wire.size()) << note;
      ASSERT_EQ(got.kind, MessageKind::kQuery) << note;
      ASSERT_EQ(got.query, sent) << note;
    }
  }
}

TEST(ProtocolTest, UpdateRequestRoundTrip) {
  for (int trial = 0; trial < NumTrials(); ++trial) {
    const uint64_t seed = TrialSeed(static_cast<uint64_t>(trial));
    const std::string note = ReproNote(seed);
    Rng rng(seed);
    for (int i = 0; i < 200; ++i) {
      const UpdateRequest sent = RandomUpdateRequest(rng, rng.Next());
      std::string wire;
      EncodeUpdateRequest(sent, &wire);
      Request got;
      size_t consumed = 0;
      ASSERT_EQ(DecodeRequest(wire, kMaxRequestBytes, &got, &consumed),
                DecodeStatus::kOk)
          << note;
      ASSERT_EQ(got.kind, MessageKind::kEdgeUpdates) << note;
      ASSERT_TRUE(got.updates == sent) << note;
    }
  }
}

TEST(ProtocolTest, ResponseRoundTrip) {
  for (int trial = 0; trial < NumTrials(); ++trial) {
    const uint64_t seed = TrialSeed(static_cast<uint64_t>(trial));
    const std::string note = ReproNote(seed);
    Rng rng(seed);
    for (int i = 0; i < 200; ++i) {
      std::string wire;
      Response got;
      size_t consumed = 0;
      if (rng.NextBounded(2) == 0) {
        const QueryResponse sent = RandomQueryResponse(rng, rng.Next());
        EncodeQueryResponse(sent, &wire);
        ASSERT_EQ(DecodeResponse(wire, kMaxResponseBytes, &got, &consumed),
                  DecodeStatus::kOk)
            << note;
        ASSERT_EQ(got.kind, MessageKind::kQuery) << note;
        ASSERT_EQ(got.query, sent) << note;
      } else {
        UpdateResponse sent;
        sent.request_id = rng.Next();
        sent.content_version = rng.Next();
        sent.num_applied = static_cast<uint32_t>(rng.NextBounded(1000));
        EncodeUpdateResponse(sent, &wire);
        ASSERT_EQ(DecodeResponse(wire, kMaxResponseBytes, &got, &consumed),
                  DecodeStatus::kOk)
            << note;
        ASSERT_EQ(got.kind, MessageKind::kEdgeUpdates) << note;
        ASSERT_EQ(got.update, sent) << note;
      }
      ASSERT_EQ(consumed, wire.size()) << note;
    }
  }
}

// Frames back to back in one buffer decode in order, each reporting
// its own consumed length.
TEST(ProtocolTest, ConcatenatedFramesDecodeInOrder) {
  for (int trial = 0; trial < NumTrials(); ++trial) {
    const uint64_t seed = TrialSeed(static_cast<uint64_t>(trial));
    const std::string note = ReproNote(seed);
    Rng rng(seed);
    std::vector<QueryRequest> sent;
    std::string wire;
    for (int i = 0; i < 16; ++i) {
      sent.push_back(RandomQueryRequest(rng, 1 << 16, rng.Next()));
      EncodeQueryRequest(sent.back(), &wire);
    }
    std::string_view rest = wire;
    for (const QueryRequest& expect : sent) {
      Request got;
      size_t consumed = 0;
      ASSERT_EQ(DecodeRequest(rest, kMaxRequestBytes, &got, &consumed),
                DecodeStatus::kOk)
          << note;
      ASSERT_EQ(got.query, expect) << note;
      rest.remove_prefix(consumed);
    }
    ASSERT_TRUE(rest.empty()) << note;
  }
}

// Property: every strict prefix of a valid frame is kNeedMore — the
// incremental decoder never misreads a truncated stream as malformed
// (or worse, as a shorter valid frame).
TEST(ProtocolTest, EveryStrictPrefixNeedsMore) {
  for (int trial = 0; trial < NumTrials(); ++trial) {
    const uint64_t seed = TrialSeed(static_cast<uint64_t>(trial));
    const std::string note = ReproNote(seed);
    Rng rng(seed);
    const QueryRequest sent = RandomQueryRequest(rng, 4096, rng.Next());
    std::string wire;
    EncodeQueryRequest(sent, &wire);
    for (size_t cut = 0; cut < wire.size(); ++cut) {
      Request got;
      size_t consumed = 0;
      ASSERT_EQ(DecodeRequest(std::string_view(wire).substr(0, cut),
                              kMaxRequestBytes, &got, &consumed),
                DecodeStatus::kNeedMore)
          << "prefix len " << cut << " " << note;
    }
  }
}

TEST(ProtocolTest, OversizedFrameRejectedFromHeaderAlone) {
  // Length prefix declaring (limit + 1) bytes: rejected with only the
  // 4 header bytes buffered.
  const uint32_t huge = static_cast<uint32_t>(kMaxRequestBytes) + 1;
  std::string wire;
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<char>((huge >> (8 * i)) & 0xFF));
  }
  Request got;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeRequest(wire, kMaxRequestBytes, &got, &consumed, &error),
            DecodeStatus::kOversized);
  EXPECT_NE(error.find("exceeds limit"), std::string::npos) << error;
}

// Targeted malformed frames: each corruption must be rejected, never
// silently reinterpreted.
TEST(ProtocolTest, MalformedFramesRejected) {
  Rng rng(TrialSeed(0));
  const QueryRequest base = RandomQueryRequest(rng, 1024, 7);
  std::string valid;
  EncodeQueryRequest(base, &valid);
  const size_t kKindOffset = 4 + 8;      // length prefix + request id
  const size_t kTypeOffset = kKindOffset + 1;
  const size_t kPriorityOffset = kTypeOffset + 1;

  auto decode = [](const std::string& wire) {
    Request got;
    size_t consumed = 0;
    return DecodeRequest(wire, kMaxRequestBytes, &got, &consumed);
  };

  std::string bad_kind = valid;
  bad_kind[kKindOffset] = 9;
  EXPECT_EQ(decode(bad_kind), DecodeStatus::kMalformed);

  std::string bad_type = valid;
  bad_type[kTypeOffset] = 100;
  EXPECT_EQ(decode(bad_type), DecodeStatus::kMalformed);

  std::string bad_priority = valid;
  bad_priority[kPriorityOffset] = static_cast<char>(kNumPriorities);
  EXPECT_EQ(decode(bad_priority), DecodeStatus::kMalformed);

  // Trailing junk: payload one byte longer than the message.
  std::string trailing = valid;
  trailing.push_back('x');
  const uint32_t len = static_cast<uint32_t>(trailing.size() - 4);
  for (int i = 0; i < 4; ++i) {
    trailing[i] = static_cast<char>((len >> (8 * i)) & 0xFF);
  }
  EXPECT_EQ(decode(trailing), DecodeStatus::kMalformed);

  // Target count inconsistent with the payload length. Legacy layout
  // (no trace block) so the count byte's offset from the tail is fixed.
  QueryRequest counted = base;
  counted.trace_id = 0;
  counted.trace_sampled = false;
  counted.targets = {1, 2, 3};
  std::string bad_count;
  EncodeQueryRequest(counted, &bad_count);
  const size_t count_offset = bad_count.size() - 3 * sizeof(Vertex) - 4;
  bad_count[count_offset] = 5;
  EXPECT_EQ(decode(bad_count), DecodeStatus::kMalformed);

  // Edge-update insert flag outside {0, 1}.
  UpdateRequest upd;
  upd.request_id = 9;
  upd.updates.push_back({1, 2, true});
  std::string bad_insert;
  EncodeUpdateRequest(upd, &bad_insert);
  bad_insert.back() = 2;
  EXPECT_EQ(decode(bad_insert), DecodeStatus::kMalformed);

  // Response-side: status byte beyond kShed.
  QueryResponse resp;
  resp.request_id = 1;
  std::string bad_status;
  EncodeQueryResponse(resp, &bad_status);
  bad_status[kTypeOffset + 1] = 17;  // status follows type
  Response rgot;
  size_t rconsumed = 0;
  EXPECT_EQ(DecodeResponse(bad_status, kMaxResponseBytes, &rgot, &rconsumed),
            DecodeStatus::kMalformed);
}

// Backward compatibility: a frame without the optional trace block is
// byte-identical to the pre-trace wire format and decodes with
// trace_id == 0 (the server then mints one); the same request with a
// trace context encodes exactly 9 extra trailing bytes.
TEST(ProtocolTest, LegacyFrameWithoutTraceBlockDecodes) {
  for (int trial = 0; trial < NumTrials(); ++trial) {
    const uint64_t seed = TrialSeed(static_cast<uint64_t>(trial));
    const std::string note = ReproNote(seed);
    Rng rng(seed);
    for (int i = 0; i < 100; ++i) {
      QueryRequest legacy = RandomQueryRequest(rng, 1 << 16, rng.Next());
      legacy.trace_id = 0;
      legacy.trace_sampled = false;
      std::string legacy_wire;
      EncodeQueryRequest(legacy, &legacy_wire);

      QueryRequest traced = legacy;
      while (traced.trace_id == 0) traced.trace_id = rng.Next();
      traced.trace_sampled = rng.NextBounded(2) == 0;
      std::string traced_wire;
      EncodeQueryRequest(traced, &traced_wire);
      ASSERT_EQ(traced_wire.size(), legacy_wire.size() + 9) << note;

      Request got;
      size_t consumed = 0;
      std::string error;
      ASSERT_EQ(DecodeRequest(legacy_wire, kMaxRequestBytes, &got, &consumed,
                              &error),
                DecodeStatus::kOk)
          << error << " " << note;
      ASSERT_EQ(got.query.trace_id, 0u) << note;
      ASSERT_FALSE(got.query.trace_sampled) << note;
      ASSERT_EQ(got.query, legacy) << note;
    }
  }
}

// The trace block's two validity rules: the sampled flag is 0/1 and the
// id is non-zero. Violations are kMalformed, never reinterpreted.
TEST(ProtocolTest, MalformedTraceBlockRejected) {
  Rng rng(TrialSeed(1));
  QueryRequest req = RandomQueryRequest(rng, 1024, 11);
  while (req.trace_id == 0) req.trace_id = rng.Next();
  req.trace_sampled = true;
  std::string valid;
  EncodeQueryRequest(req, &valid);
  // Trailing block layout: [u8 sampled][u64 trace_id].
  const size_t sampled_offset = valid.size() - 9;

  auto decode = [](const std::string& wire, std::string* error) {
    Request got;
    size_t consumed = 0;
    return DecodeRequest(wire, kMaxRequestBytes, &got, &consumed, error);
  };

  std::string error;
  ASSERT_EQ(decode(valid, &error), DecodeStatus::kOk) << error;

  std::string bad_flag = valid;
  bad_flag[sampled_offset] = 2;
  EXPECT_EQ(decode(bad_flag, &error), DecodeStatus::kMalformed);
  EXPECT_NE(error.find("sampled"), std::string::npos) << error;

  std::string zero_id = valid;
  for (size_t i = valid.size() - 8; i < valid.size(); ++i) zero_id[i] = 0;
  EXPECT_EQ(decode(zero_id, &error), DecodeStatus::kMalformed);
  EXPECT_NE(error.find("trace id"), std::string::npos) << error;
}

// A full kLevels row for 2^18 vertices (the row size perfbench's
// levels_kron workload serves) round-trips through one frame of exactly
// the fixed fields plus 2 bytes per vertex.
TEST(ProtocolTest, FullSizeLevelsResponseRoundTrip) {
  constexpr size_t kVertices = size_t{1} << 18;
  QueryResponse sent;
  sent.request_id = 5;
  sent.type = QueryType::kLevels;
  sent.snapshot_version = 3;
  sent.vertices_reached = kVertices - 1;
  sent.levels.resize(kVertices);
  for (size_t i = 0; i < kVertices; ++i) {
    sent.levels[i] = static_cast<Level>(SplitMix64(i));
  }
  std::string wire;
  EncodeQueryResponse(sent, &wire);
  ASSERT_EQ(wire.size(), 524338u);
  Response got;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(DecodeResponse(wire, kMaxResponseBytes, &got, &consumed, &error),
            DecodeStatus::kOk)
      << error;
  EXPECT_EQ(consumed, wire.size());
  EXPECT_TRUE(got.query == sent);
}

// `wire` with the byte at `offset` removed and the length prefix
// shortened to match, so the frame is complete but one array is a byte
// short. Exactly sized, so under ASan a read past the frame is a report.
std::vector<char> WithByteRemoved(const std::string& wire, size_t offset) {
  std::string cut = wire;
  cut.erase(offset, 1);
  const uint32_t len = static_cast<uint32_t>(cut.size() - 4);
  for (int i = 0; i < 4; ++i) {
    cut[i] = static_cast<char>((len >> (8 * i)) & 0xFF);
  }
  return std::vector<char>(cut.begin(), cut.end());
}

std::string_view View(const std::vector<char>& bytes) {
  return std::string_view(bytes.data(), bytes.size());
}

// Every array in every message, one byte short: the decoder reports
// kMalformed and never reads past the frame.
TEST(ProtocolTest, ArrayOneByteShortIsMalformed) {
  QueryResponse resp;
  resp.request_id = 1;
  resp.levels = {1, 2, 3};
  resp.reachable = {1, 0};
  resp.khop_sizes = {4, 5};
  std::string resp_wire;
  EncodeQueryResponse(resp, &resp_wire);
  // Prefix, the 34 fixed payload bytes, then count + elements per array.
  const size_t levels_end = 4 + 34 + 4 + 3 * sizeof(Level);
  const size_t reachable_end = levels_end + 4 + 2;
  const size_t khop_end = reachable_end + 4 + 2 * sizeof(uint64_t);
  ASSERT_EQ(khop_end, resp_wire.size());
  for (const size_t end : {levels_end, reachable_end, khop_end}) {
    const std::vector<char> cut = WithByteRemoved(resp_wire, end - 1);
    Response got;
    size_t consumed = 0;
    EXPECT_EQ(DecodeResponse(View(cut), kMaxResponseBytes, &got, &consumed),
              DecodeStatus::kMalformed)
        << "response array ending at byte " << end;
  }

  // Targets, both as the last field and followed by a trace block.
  QueryRequest req;
  req.request_id = 2;
  req.type = QueryType::kDistances;
  req.targets = {7, 8, 9};
  for (const uint64_t trace_id : {uint64_t{0}, uint64_t{0xABC}}) {
    req.trace_id = trace_id;
    std::string wire;
    EncodeQueryRequest(req, &wire);
    const size_t targets_end = 4 + 23 + 4 + 3 * sizeof(Vertex);
    ASSERT_EQ(wire.size(), targets_end + (trace_id != 0 ? 9 : 0));
    const std::vector<char> cut = WithByteRemoved(wire, targets_end - 1);
    Request got;
    size_t consumed = 0;
    EXPECT_EQ(DecodeRequest(View(cut), kMaxRequestBytes, &got, &consumed),
              DecodeStatus::kMalformed)
        << "targets, trace id " << trace_id;
  }

  UpdateRequest upd;
  upd.request_id = 3;
  upd.updates = {{1, 2, true}, {3, 4, false}};
  std::string upd_wire;
  EncodeUpdateRequest(upd, &upd_wire);
  const std::vector<char> cut =
      WithByteRemoved(upd_wire, upd_wire.size() - 1);
  Request got;
  size_t consumed = 0;
  EXPECT_EQ(DecodeRequest(View(cut), kMaxRequestBytes, &got, &consumed),
            DecodeStatus::kMalformed);
}

// The reachable array is copied in bulk, then validated: a flag of 2
// anywhere in it rejects the frame.
TEST(ProtocolTest, ReachableFlagAboveOneRejected) {
  QueryResponse resp;
  resp.request_id = 4;
  resp.type = QueryType::kReachability;
  resp.reachable = {0, 1, 1, 0, 1};
  std::string valid;
  EncodeQueryResponse(resp, &valid);
  const size_t reachable_at = 4 + 34 + 4 + 4;  // no levels
  for (size_t i = 0; i < resp.reachable.size(); ++i) {
    std::string bad = valid;
    bad[reachable_at + i] = 2;
    Response got;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(DecodeResponse(bad, kMaxResponseBytes, &got, &consumed, &error),
              DecodeStatus::kMalformed)
        << "flag " << i;
    EXPECT_NE(error.find("reachable flag"), std::string::npos) << error;
  }
}

// Fuzz-lite: random single-byte mutations of valid frames must decode
// to *some* status without crashing or over-consuming — exercised
// under ASan/UBSan via the `server` label.
TEST(ProtocolTest, RandomMutationsNeverCrash) {
  for (int trial = 0; trial < NumTrials(); ++trial) {
    const uint64_t seed = TrialSeed(static_cast<uint64_t>(trial));
    const std::string note = ReproNote(seed);
    Rng rng(seed);
    for (int i = 0; i < 500; ++i) {
      std::string wire;
      if (rng.NextBounded(2) == 0) {
        EncodeQueryRequest(RandomQueryRequest(rng, 512, rng.Next()), &wire);
      } else {
        EncodeUpdateRequest(RandomUpdateRequest(rng, rng.Next()), &wire);
      }
      // Mutate 1-4 bytes anywhere, length prefix included.
      const int flips = 1 + static_cast<int>(rng.NextBounded(4));
      for (int f = 0; f < flips; ++f) {
        wire[rng.NextBounded(wire.size())] =
            static_cast<char>(rng.NextBounded(256));
      }
      Request got;
      size_t consumed = 0;
      const DecodeStatus s =
          DecodeRequest(wire, kMaxRequestBytes, &got, &consumed);
      if (s == DecodeStatus::kOk) {
        ASSERT_LE(consumed, wire.size()) << note;
        ASSERT_GE(consumed, size_t{4}) << note;
      }
    }
  }
}

}  // namespace
}  // namespace server
}  // namespace pbfs
