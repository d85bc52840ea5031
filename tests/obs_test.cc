// Invariant suite for the obs tracing subsystem (src/obs).
//
// The traces are not treated as best-effort diagnostics: every number
// the instrumentation reports is pinned against ground truth computed
// independently. Per-level edges_scanned of a pure top-down SMS-PBFS
// must equal the oracle's degree sums, states_updated must reproduce
// the sequential reached count, scheduler fetch/steal counters must
// balance exactly-once under adversarial steal schedules, and the
// Chrome trace JSON must round-trip through a real parser even with
// hostile event names. Labeled "obs" in CMake; see docs/observability.md.

#include <atomic>
#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bfs/multi_source.h"
#include "bfs/sequential.h"
#include "bfs/single_source.h"
#include "graph/generators.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/steal_policy.h"
#include "sched/worker_pool.h"
#include "util/timer.h"

namespace pbfs {
namespace {

using obs::AggregateMetrics;
using obs::ChromeTraceJson;
using obs::MetricsSnapshot;
using obs::TraceDump;
using obs::TraceEvent;
using obs::TraceEventType;
using obs::Tracer;
using obs::TraceThreadDump;

// All events named `name`, across every thread of the dump.
std::vector<TraceEvent> EventsNamed(const TraceDump& dump,
                                    std::string_view name) {
  std::vector<TraceEvent> out;
  for (const TraceThreadDump& thread : dump.threads) {
    for (const TraceEvent& event : thread.events) {
      if (event.name != nullptr && name == event.name) out.push_back(event);
    }
  }
  return out;
}

uint64_t SumArg(const std::vector<TraceEvent>& events, std::string_view arg) {
  uint64_t sum = 0;
  for (const TraceEvent& event : events) sum += event.Arg(arg);
  return sum;
}

// ---------------------------------------------------------------------
// Span structure invariants.
// ---------------------------------------------------------------------

TEST(ObsTraceTest, SpansNestOrAreDisjointAndTimestampsAreMonotonic) {
  Graph graph = SocialNetwork({.num_vertices = 2048, .avg_degree = 8.0,
                               .seed = 11});
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  std::unique_ptr<SingleSourceBfsBase> bfs =
      MakeSmsPbfs(graph, SmsVariant::kByte, &pool);

  Tracer::Get().Start();
  std::vector<Level> levels(graph.num_vertices());
  bfs->Run(3, BfsOptions{}, levels.data());
  bfs->Run(99, BfsOptions{}, levels.data());
  TraceDump dump = Tracer::Get().Stop();

  ASSERT_GE(dump.threads.size(), 2u);  // coordinator + at least 1 worker
  EXPECT_EQ(dump.total_dropped(), 0u);
  for (const TraceThreadDump& thread : dump.threads) {
    // Events are recorded at their end, so record order is end-time
    // order per thread.
    int64_t prev_end = dump.session_start_ns;
    for (const TraceEvent& event : thread.events) {
      EXPECT_GE(event.end_ns(), prev_end) << "thread " << thread.label;
      EXPECT_GE(event.dur_ns, 0) << "thread " << thread.label;
      prev_end = event.end_ns();
    }
    // Any two spans on one thread are disjoint or properly nested --
    // the thread is a call stack, not an interval soup.
    std::vector<const TraceEvent*> spans;
    for (const TraceEvent& event : thread.events) {
      if (event.type == TraceEventType::kSpan) spans.push_back(&event);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      for (size_t j = i + 1; j < spans.size(); ++j) {
        const TraceEvent& a = *spans[i];
        const TraceEvent& b = *spans[j];
        const bool disjoint =
            a.end_ns() <= b.ts_ns || b.end_ns() <= a.ts_ns;
        const bool a_in_b = a.ts_ns >= b.ts_ns && a.end_ns() <= b.end_ns();
        const bool b_in_a = b.ts_ns >= a.ts_ns && b.end_ns() <= a.end_ns();
        EXPECT_TRUE(disjoint || a_in_b || b_in_a)
            << thread.label << ": " << a.name << " [" << a.ts_ns << ","
            << a.end_ns() << ") vs " << b.name << " [" << b.ts_ns << ","
            << b.end_ns() << ")";
      }
    }
  }
  // The per-run span contains its per-level spans (same thread, both
  // present).
  EXPECT_EQ(EventsNamed(dump, "sms-pbfs-byte.run").size(), 2u);
  EXPECT_GT(EventsNamed(dump, "sms-pbfs-byte.level").size(), 0u);
}

// ---------------------------------------------------------------------
// Kernel counter invariants against the sequential oracle.
// ---------------------------------------------------------------------

struct OracleLevels {
  std::vector<Level> levels;
  uint64_t reached = 0;
  Level max_level = 0;
  // degree_sum[d] = sum of degrees over oracle vertices at level d.
  std::vector<uint64_t> degree_sum;
  // count[d] = number of oracle vertices at level d.
  std::vector<uint64_t> count;
};

OracleLevels RunOracle(const Graph& graph, Vertex source) {
  OracleLevels oracle;
  oracle.levels.resize(graph.num_vertices());
  SequentialBfs(graph, source, oracle.levels.data());
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    const Level d = oracle.levels[v];
    if (d == kLevelUnreached) continue;
    ++oracle.reached;
    oracle.max_level = std::max(oracle.max_level, d);
    if (oracle.degree_sum.size() <= d) {
      oracle.degree_sum.resize(d + 1, 0);
      oracle.count.resize(d + 1, 0);
    }
    oracle.degree_sum[d] += graph.Degree(v);
    ++oracle.count[d];
  }
  return oracle;
}

void CheckTopDownLevels(SmsVariant variant, const char* level_span) {
  Graph graph = SocialNetwork({.num_vertices = 4096, .avg_degree = 6.0,
                               .seed = 17});
  const Vertex source = 42;
  OracleLevels oracle = RunOracle(graph, source);
  ASSERT_GT(oracle.max_level, 2) << "test graph too shallow";

  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  std::unique_ptr<SingleSourceBfsBase> bfs =
      MakeSmsPbfs(graph, variant, &pool);
  BfsOptions options;
  options.enable_bottom_up = false;  // every level scans the frontier

  Tracer::Get().Start();
  std::vector<Level> levels(graph.num_vertices());
  bfs->Run(source, options, levels.data());
  TraceDump dump = Tracer::Get().Stop();
  ASSERT_EQ(dump.total_dropped(), 0u);

  const std::vector<TraceEvent> events = EventsNamed(dump, level_span);
  // One event per iteration: levels 1..max_level discover vertices, and
  // one final iteration scans the last frontier and discovers nothing.
  ASSERT_EQ(events.size(), static_cast<size_t>(oracle.max_level) + 1);
  std::set<uint64_t> seen_levels;
  for (const TraceEvent& event : events) {
    const uint64_t d = event.Arg("level");
    ASSERT_GE(d, 1u);
    ASSERT_LE(d, static_cast<uint64_t>(oracle.max_level) + 1);
    EXPECT_TRUE(seen_levels.insert(d).second) << "duplicate level " << d;
    EXPECT_EQ(event.Arg("bottom_up"), 0u);
    // A pure top-down iteration at depth d scans exactly the outgoing
    // edges of the depth-(d-1) frontier and discovers exactly the
    // oracle's depth-d vertices.
    EXPECT_EQ(event.Arg("edges_scanned"), oracle.degree_sum[d - 1])
        << "level " << d;
    const uint64_t expected_updates =
        d < oracle.count.size() ? oracle.count[d] : 0;
    EXPECT_EQ(event.Arg("states_updated"), expected_updates) << "level " << d;
    const uint64_t expected_frontier = oracle.count[d - 1];
    EXPECT_EQ(event.Arg("frontier"), expected_frontier) << "level " << d;
  }
  // Totals: every reached vertex's adjacency is scanned exactly once,
  // and every reached vertex except the source is discovered once.
  uint64_t total_degree = 0;
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    if (oracle.levels[v] != kLevelUnreached) total_degree += graph.Degree(v);
  }
  EXPECT_EQ(SumArg(events, "edges_scanned"), total_degree);
  EXPECT_EQ(SumArg(events, "states_updated") + 1, oracle.reached);
}

TEST(ObsKernelTest, TopDownLevelCountersMatchOracleByte) {
  CheckTopDownLevels(SmsVariant::kByte, "sms-pbfs-byte.level");
}

TEST(ObsKernelTest, TopDownLevelCountersMatchOracleBit) {
  CheckTopDownLevels(SmsVariant::kBit, "sms-pbfs-bit.level");
}

TEST(ObsKernelTest, DirectionOptimizedStatesUpdatedMatchOracle) {
  // Dense enough that the Beamer heuristic goes bottom-up in the middle
  // levels; states_updated must still sum to the reached count.
  Graph graph = SocialNetwork({.num_vertices = 4096, .avg_degree = 16.0,
                               .seed = 5});
  const Vertex source = 7;
  OracleLevels oracle = RunOracle(graph, source);

  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  for (SmsVariant variant : {SmsVariant::kByte, SmsVariant::kBit,
                             SmsVariant::kQueue}) {
    std::unique_ptr<SingleSourceBfsBase> bfs =
        MakeSmsPbfs(graph, variant, &pool);
    Tracer::Get().Start();
    BfsResult result = bfs->Run(source, BfsOptions{}, nullptr);
    TraceDump dump = Tracer::Get().Stop();

    const std::string span_name =
        std::string(SmsVariantName(variant)) + ".level";
    const std::vector<TraceEvent> events = EventsNamed(dump, span_name);
    ASSERT_GT(events.size(), 0u) << span_name;
    EXPECT_EQ(SumArg(events, "states_updated") + 1, oracle.reached)
        << span_name;
    EXPECT_EQ(result.vertices_visited, oracle.reached) << span_name;
    // bottom_up tags must reproduce the kernel's own iteration count
    // (which only counts iterations that discovered something).
    uint64_t bottom_up_discovering = 0;
    for (const TraceEvent& event : events) {
      if (event.Arg("bottom_up") == 1 && event.Arg("states_updated") > 0) {
        ++bottom_up_discovering;
      }
    }
    EXPECT_EQ(bottom_up_discovering,
              static_cast<uint64_t>(result.bottom_up_iterations))
        << span_name;
    // The heuristic must actually have switched directions for this
    // graph, or the test is not exercising the bottom-up tagging.
    if (variant == SmsVariant::kByte) {
      EXPECT_GT(result.bottom_up_iterations, 0);
    }
  }
}

TEST(ObsKernelTest, MsPbfsStatesUpdatedMatchLevelsOutput) {
  Graph graph = SocialNetwork({.num_vertices = 2048, .avg_degree = 8.0,
                               .seed = 23});
  const Vertex n = graph.num_vertices();
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  std::unique_ptr<MultiSourceBfsBase> bfs = MakeMsPbfs(graph, 64, &pool);

  std::vector<Vertex> sources;
  for (Vertex s = 0; s < 16; ++s) sources.push_back(s * 97 % n);
  std::vector<Level> levels(static_cast<size_t>(sources.size()) * n);

  Tracer::Get().Start();
  bfs->Run(sources, BfsOptions{}, levels.data());
  TraceDump dump = Tracer::Get().Stop();

  // states_updated counts vertices gaining at least one new BFS bit in
  // an iteration; a vertex is counted once per distinct positive level
  // at which some source first reaches it.
  uint64_t expected = 0;
  for (Vertex v = 0; v < n; ++v) {
    std::set<Level> distinct;
    for (size_t i = 0; i < sources.size(); ++i) {
      const Level d = levels[i * n + v];
      if (d != kLevelUnreached && d > 0) distinct.insert(d);
    }
    expected += distinct.size();
  }
  const std::vector<TraceEvent> events = EventsNamed(dump, "ms-pbfs.level");
  ASSERT_GT(events.size(), 0u);
  EXPECT_EQ(SumArg(events, "states_updated"), expected);

  const std::vector<TraceEvent> runs = EventsNamed(dump, "ms-pbfs.run");
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].Arg("width"), 64u);
  EXPECT_EQ(runs[0].Arg("sources"), sources.size());
}

// ---------------------------------------------------------------------
// Scheduler counter invariants.
// ---------------------------------------------------------------------

TEST(ObsSchedTest, TaskCountsBalanceUnderPerturbedSchedules) {
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  for (const NamedStealPolicy& schedule : PerturbationSchedules()) {
    if (schedule.name != "steal_heavy" && schedule.name != "starvation") {
      continue;
    }
    pool.SetStealPolicy(schedule.policy);
    Tracer::Get().Start();
    constexpr uint64_t kTotal = 10000;
    constexpr uint32_t kSplit = 64;
    std::atomic<uint64_t> touched{0};
    for (int round = 0; round < 3; ++round) {
      pool.ParallelFor(kTotal, kSplit, [&](int, uint64_t b, uint64_t e) {
        touched.fetch_add(e - b, std::memory_order_relaxed);
      });
    }
    pool.SetStealPolicy(nullptr);
    TraceDump dump = Tracer::Get().Stop();

    // Exactly-once element coverage, independent of the trace.
    EXPECT_EQ(touched.load(), 3 * kTotal) << schedule.name;

    // Per loop id: the workers' local+stolen fetches must account for
    // every task exactly once.
    const std::vector<TraceEvent> loops =
        EventsNamed(dump, "sched.parallel_for");
    const std::vector<TraceEvent> worker_loops =
        EventsNamed(dump, "sched.worker_loop");
    ASSERT_EQ(loops.size(), 3u) << schedule.name;
    std::map<uint64_t, uint64_t> fetched_by_loop;
    for (const TraceEvent& event : worker_loops) {
      fetched_by_loop[event.Arg("loop")] +=
          event.Arg("local") + event.Arg("stolen");
    }
    for (const TraceEvent& loop : loops) {
      const uint64_t expected_tasks = (kTotal + kSplit - 1) / kSplit;
      EXPECT_EQ(loop.Arg("tasks"), expected_tasks) << schedule.name;
      EXPECT_EQ(fetched_by_loop[loop.Arg("loop")], expected_tasks)
          << schedule.name << " loop " << loop.Arg("loop");
    }
    // Every worker ran the loop body (even if it fetched nothing), so
    // each loop has one span per worker.
    EXPECT_EQ(worker_loops.size(), 3u * 4u) << schedule.name;
    // steal_heavy forces thieves ahead of owners, so steals must
    // actually appear; the invariant holds either way, but the schedule
    // must be exercised.
    if (schedule.name == "steal_heavy") {
      EXPECT_GT(SumArg(worker_loops, "stolen"), 0u);
    }
  }
}

TEST(ObsSchedTest, WorkerSpansComeFromDistinctLabeledThreads) {
  WorkerPool pool({.num_workers = 3, .pin_threads = false});
  Tracer::Get().Start();
  pool.ParallelFor(4096, 64, [](int, uint64_t, uint64_t) {});
  TraceDump dump = Tracer::Get().Stop();

  std::set<std::string> worker_labels;
  for (const TraceThreadDump& thread : dump.threads) {
    if (thread.worker_id >= 0) {
      EXPECT_EQ(thread.label,
                "worker-" + std::to_string(thread.worker_id));
      worker_labels.insert(thread.label);
    }
  }
  EXPECT_EQ(worker_labels.size(), 3u);
}

// ---------------------------------------------------------------------
// Ring-buffer behavior.
// ---------------------------------------------------------------------

TEST(ObsTraceTest, FullRingDropsNewestAndCountsDrops) {
  Tracer::Options options;
  options.events_per_thread = 4;
  Tracer::Get().Start(options);
  for (int i = 0; i < 10; ++i) {
    TraceEvent event = obs::MakeInstant("tick", NowNanos());
    event.AddArg("i", static_cast<uint64_t>(i));
    Tracer::Get().Record(event);
  }
  TraceDump dump = Tracer::Get().Stop();
  ASSERT_EQ(dump.threads.size(), 1u);
  EXPECT_EQ(dump.threads[0].events.size(), 4u);
  EXPECT_EQ(dump.threads[0].dropped, 6u);
  // Drop-newest: the *first* four events survive.
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(dump.threads[0].events[i].Arg("i"), i);
  }
  // The drop count reaches the exported JSON.
  EXPECT_NE(ChromeTraceJson(dump).find("\"dropped_events\":6"),
            std::string::npos);
}

// Overflow accounting must stay exact when many writers fill their
// rings at once: the rings are strictly per-thread, so each thread
// keeps exactly its first `capacity` events (drop-newest) and counts
// the rest, with no cross-thread interference in either tally.
TEST(ObsTraceTest, ConcurrentWritersOverflowWithExactDropAccounting) {
  constexpr int kThreads = 8;
  constexpr uint64_t kCapacity = 4;
  constexpr uint64_t kEventsPerThread = 100;

  Tracer::Options options;
  options.events_per_thread = kCapacity;
  Tracer::Get().Start(options);

  std::atomic<int> ready{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&ready] {
      // Rendezvous so the rings fill while all writers are live, not
      // one thread at a time.
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (uint64_t i = 0; i < kEventsPerThread; ++i) {
        TraceEvent event = obs::MakeInstant("flood", NowNanos());
        event.AddArg("i", i);
        Tracer::Get().Record(event);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  TraceDump dump = Tracer::Get().Stop();

  ASSERT_EQ(dump.threads.size(), static_cast<size_t>(kThreads));
  for (const TraceThreadDump& thread : dump.threads) {
    ASSERT_EQ(thread.events.size(), kCapacity);
    EXPECT_EQ(thread.dropped, kEventsPerThread - kCapacity);
    // Drop-newest per ring: the kept prefix is that thread's first
    // kCapacity events, in order.
    for (uint64_t i = 0; i < kCapacity; ++i) {
      EXPECT_EQ(thread.events[i].Arg("i"), i);
    }
  }
  EXPECT_EQ(dump.total_events(), kThreads * kCapacity);
  EXPECT_EQ(dump.total_dropped(),
            kThreads * (kEventsPerThread - kCapacity));
  EXPECT_NE(ChromeTraceJson(dump).find(
                "\"dropped_events\":" +
                std::to_string(kThreads * (kEventsPerThread - kCapacity))),
            std::string::npos);
}

TEST(ObsTraceTest, SessionsAreIndependent) {
  Tracer::Get().Start();
  Tracer::Get().Record(obs::MakeInstant("first-session", NowNanos()));
  TraceDump first = Tracer::Get().Stop();
  EXPECT_EQ(first.total_events(), 1u);

  Tracer::Get().Start();
  Tracer::Get().Record(obs::MakeInstant("second-session", NowNanos()));
  TraceDump second = Tracer::Get().Stop();
  EXPECT_EQ(second.total_events(), 1u);
  EXPECT_TRUE(EventsNamed(second, "first-session").empty());

  // Recording outside a session is a no-op, not an error.
  Tracer::Get().Record(obs::MakeInstant("orphan", NowNanos()));
}

// ---------------------------------------------------------------------
// Chrome trace JSON: structural validity and escaping round-trip,
// checked with a real (if tiny) recursive-descent JSON parser rather
// than substring matching.
// ---------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* Get(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out) {
    if (!ParseValue(out)) return false;
    SkipSpace();
    return pos_ == text_.size();  // no trailing garbage
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (text_.substr(pos_, 4) == "true") {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      out->kind = JsonValue::Kind::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      return true;
    }
    return ParseNumber(out);
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    if (!Consume('{')) return false;
    if (Consume('}')) return true;
    do {
      std::string key;
      SkipSpace();
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
    } while (Consume(','));
    return Consume('}');
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    if (!Consume('[')) return false;
    if (Consume(']')) return true;
    do {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
    } while (Consume(','));
    return Consume(']');
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw ctrl
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else return false;
          }
          if (code > 0x7F) return false;  // exporter only emits ASCII \u
          *out += static_cast<char>(code);
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::stod(std::string(text_.substr(start, pos_ - start)));
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

TEST(ObsJsonTest, ZeroEventDumpIsValidJson) {
  Tracer::Get().Start();
  TraceDump dump = Tracer::Get().Stop();
  EXPECT_EQ(dump.total_events(), 0u);

  JsonValue root;
  ASSERT_TRUE(JsonParser(ChromeTraceJson(dump)).Parse(&root));
  const JsonValue* events = root.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->kind, JsonValue::Kind::kArray);
  EXPECT_TRUE(events->array.empty());
  const JsonValue* other = root.Get("otherData");
  ASSERT_NE(other, nullptr);
  ASSERT_NE(other->Get("dropped_events"), nullptr);
  EXPECT_EQ(other->Get("dropped_events")->number, 0.0);
}

TEST(ObsJsonTest, HostileEventNamesRoundTripThroughEscaping) {
  const std::vector<std::string> evil_names = {
      "quote\"and\\backslash",
      "newline\nand\ttab",
      "control\x01\x1f chars",
      "cr\rlf\n",
      "plain",
  };
  Tracer::Get().Start();
  for (const std::string& name : evil_names) {
    Tracer::Get().Record(obs::MakeInstant(Tracer::Intern(name), NowNanos()));
  }
  TraceDump dump = Tracer::Get().Stop();
  ASSERT_EQ(dump.total_events(), evil_names.size());

  JsonValue root;
  ASSERT_TRUE(JsonParser(ChromeTraceJson(dump)).Parse(&root));
  const JsonValue* events = root.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<std::string> parsed_names;
  for (const JsonValue& event : events->array) {
    ASSERT_EQ(event.kind, JsonValue::Kind::kObject);
    const JsonValue* name = event.Get("name");
    ASSERT_NE(name, nullptr);
    if (event.Get("ph") != nullptr && event.Get("ph")->str == "i") {
      parsed_names.insert(name->str);
    }
  }
  // Every hostile name decodes back to exactly the original bytes.
  EXPECT_EQ(parsed_names,
            std::set<std::string>(evil_names.begin(), evil_names.end()));
}

TEST(ObsJsonTest, TracedRunExportsParseableEventsFromAllThreads) {
  Graph graph = SocialNetwork({.num_vertices = 1024, .avg_degree = 8.0,
                               .seed = 3});
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  std::unique_ptr<SingleSourceBfsBase> bfs =
      MakeSmsPbfs(graph, SmsVariant::kBit, &pool);
  Tracer::Get().Start();
  std::vector<Level> levels(graph.num_vertices());
  bfs->Run(0, BfsOptions{}, levels.data());
  TraceDump dump = Tracer::Get().Stop();

  JsonValue root;
  ASSERT_TRUE(JsonParser(ChromeTraceJson(dump)).Parse(&root));
  const JsonValue* events = root.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  // One thread_name metadata record per dumped thread, and every dumped
  // event present (spans "X" carry a dur; every event carries args).
  size_t metadata = 0;
  std::set<double> span_tids;
  for (const JsonValue& event : events->array) {
    const JsonValue* ph = event.Get("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str == "M") {
      ++metadata;
      continue;
    }
    ASSERT_NE(event.Get("args"), nullptr);
    ASSERT_NE(event.Get("ts"), nullptr);
    if (ph->str == "X") {
      ASSERT_NE(event.Get("dur"), nullptr);
      EXPECT_GE(event.Get("dur")->number, 0.0);
      span_tids.insert(event.Get("tid")->number);
    }
  }
  EXPECT_EQ(metadata, dump.threads.size());
  EXPECT_EQ(events->array.size(), dump.total_events() + dump.threads.size());
  // Spans from at least two distinct threads (coordinator + workers).
  EXPECT_GE(span_tids.size(), 2u);
}

// ---------------------------------------------------------------------
// Metrics aggregation.
// ---------------------------------------------------------------------

TEST(ObsMetricsTest, AggregatesCountsDurationsAndArgTotals) {
  Tracer::Get().Start();
  const int64_t base = NowNanos();
  for (int i = 1; i <= 3; ++i) {
    TraceEvent span = obs::MakeSpan("work", base, base + i * 1000);
    span.AddArg("items", static_cast<uint64_t>(10 * i));
    Tracer::Get().Record(span);
  }
  Tracer::Get().Record(obs::MakeInstant("mark", base));
  Tracer::Get().Record(obs::MakeInstant("mark", base + 5));
  TraceDump dump = Tracer::Get().Stop();

  MetricsSnapshot snapshot = AggregateMetrics(dump);
  EXPECT_EQ(snapshot.total_events, 5u);
  EXPECT_EQ(snapshot.dropped_events, 0u);
  ASSERT_EQ(snapshot.entries.size(), 2u);
  // Entries are sorted by name.
  EXPECT_EQ(snapshot.entries[0].name, "mark");
  EXPECT_EQ(snapshot.entries[1].name, "work");

  const MetricsSnapshot::Entry* work = snapshot.Find("work");
  ASSERT_NE(work, nullptr);
  EXPECT_EQ(work->spans, 3u);
  EXPECT_EQ(work->instants, 0u);
  EXPECT_EQ(work->duration_us.count(), 3u);
  EXPECT_DOUBLE_EQ(work->duration_us.mean(), 2.0);  // 1us, 2us, 3us
  EXPECT_EQ(work->duration_hist_us.count(), 3u);
  EXPECT_EQ(work->arg_totals.at("items"), 60u);

  const MetricsSnapshot::Entry* mark = snapshot.Find("mark");
  ASSERT_NE(mark, nullptr);
  EXPECT_EQ(mark->instants, 2u);
  EXPECT_EQ(mark->spans, 0u);
  EXPECT_EQ(snapshot.Find("absent"), nullptr);
  EXPECT_FALSE(snapshot.ToString().empty());
}

TEST(ObsMetricsTest, MergesAcrossWorkerThreads) {
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  Tracer::Get().Start();
  pool.ParallelFor(1 << 14, 64, [](int, uint64_t, uint64_t) {});
  pool.ParallelFor(1 << 14, 64, [](int, uint64_t, uint64_t) {});
  TraceDump dump = Tracer::Get().Stop();

  MetricsSnapshot snapshot = AggregateMetrics(dump);
  EXPECT_EQ(snapshot.total_events, dump.total_events());
  const MetricsSnapshot::Entry* loops = snapshot.Find("sched.worker_loop");
  ASSERT_NE(loops, nullptr);
  // 2 loops x 4 workers, merged from 4 per-thread partial aggregates.
  EXPECT_EQ(loops->spans, 8u);
  EXPECT_EQ(loops->duration_hist_us.count(), 8u);
  // All tasks accounted across the merge.
  const uint64_t tasks_per_loop = (uint64_t{1} << 14) / 64;
  EXPECT_EQ(loops->arg_totals.at("local") + loops->arg_totals.at("stolen"),
            2 * tasks_per_loop);
}

// Derived hardware metrics come straight from the summed args, and are
// absent (not zero, not NaN) when the counters never made it into the
// trace.
TEST(ObsMetricsTest, DerivedHardwareMetricsFollowArgTotals) {
  Tracer::Get().Start();
  const int64_t now = NowNanos();
  TraceEvent with_counters = obs::MakeSpan("hot.level", now, now + 1000);
  with_counters.AddArg("cycles", 2000);
  with_counters.AddArg("instructions", 1000);
  with_counters.AddArg("llc_loads", 500);
  with_counters.AddArg("llc_misses", 50);
  with_counters.AddArg("edges_scanned", 800);
  Tracer::Get().Record(with_counters);
  Tracer::Get().Record(obs::MakeSpan("plain.level", now, now + 1000));
  TraceDump dump = Tracer::Get().Stop();

  MetricsSnapshot snapshot = AggregateMetrics(dump);
  const MetricsSnapshot::Entry* hot = snapshot.Find("hot.level");
  ASSERT_NE(hot, nullptr);
  ASSERT_TRUE(hot->Ipc().has_value());
  EXPECT_DOUBLE_EQ(*hot->Ipc(), 0.5);
  ASSERT_TRUE(hot->LlcMissRate().has_value());
  EXPECT_DOUBLE_EQ(*hot->LlcMissRate(), 0.1);
  ASSERT_TRUE(hot->LlcBytesPerEdge().has_value());
  EXPECT_DOUBLE_EQ(*hot->LlcBytesPerEdge(), 50.0 * kCacheLineSize / 800.0);

  const MetricsSnapshot::Entry* plain = snapshot.Find("plain.level");
  ASSERT_NE(plain, nullptr);
  EXPECT_FALSE(plain->Ipc().has_value());
  EXPECT_FALSE(plain->LlcMissRate().has_value());
  EXPECT_FALSE(plain->LlcBytesPerEdge().has_value());
  // The derived block shows up in ToString only where it exists.
  EXPECT_NE(snapshot.ToString().find("ipc="), std::string::npos);
}

}  // namespace
}  // namespace pbfs
