// Wire-level query benchmark harness.
//
// Starts the real PbfsServer + QueryEngine stack in this process,
// drives it over loopback sockets with PbfsClient-encoded frames, and
// checks the answers. It works from outside the library: every layer
// is measured by timing calls into its public functions and by reading
// its public stats structs. perfbench/run.py passes the constants that
// differ between workloads (perfbench/workloads.json) as flags; the
// ones all workloads share are named constants below. run.py turns the
// files this writes into metrics:
//
//   <out>/records.tsv    one row per request: phase, type, scheduled /
//                        sent / done times, status, version, bytes
//   <out>/counters.json  setup timings, per-phase layer-stat snapshots,
//                        answer checks and (traced runs) per-layer
//                        timings
//   <out>/trace.json     traced runs: the benchmark's spans as Chrome
//                        trace JSON (loads in Perfetto)
//
// Phases: untimed warm-up, an open-loop latency phase at a fixed rate,
// a closed-loop saturation phase (connections x window) and an
// open-loop overload phase whose queries all carry one deadline. A
// churn workload adds one writer connection sending edge-update frames
// at a fixed rate through all of them. See perfbench/README.md.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bfs/registry.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "sched/worker_pool.h"
#include "server/client.h"
#include "server/server.h"
#include "sketch/oracle.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using pbfs::Level;
using pbfs::NowNanos;
using pbfs::QueryStatus;
using pbfs::QueryType;
using pbfs::Rng;
using pbfs::SplitMix64;
using pbfs::Vertex;
using pbfs::server::QueryRequest;
using pbfs::server::QueryResponse;

constexpr int kNumTypes = 5;
const char* const kTypeNames[kNumTypes] = {"levels", "distances",
                                           "reachability", "khop", "p2p"};
// Records of edge-update frames use this pseudo type.
constexpr int kUpdateType = kNumTypes;

enum Phase : uint8_t {
  kWarmup,
  kLatency,
  kSaturation,
  kSaturationTraced,
  kOverload,
  kProbe,
  kReplay,
  kNumPhases,
};
const char* const kPhaseNames[kNumPhases] = {
    "warmup", "latency", "saturation", "saturation_traced",
    "overload", "probe", "replay"};

// ---- Settings every workload shares ----

// Engine and load shape.
constexpr int kWorkers = 4;         // the engine's WorkerPool, as in the demo
constexpr int kConnections = 3;     // query connections; the writer is a 4th
constexpr int kWindow = 16;         // closed-loop requests in flight per connection
constexpr double kWarmupS = 1.0;    // untimed closed-loop warm-up per stack
// An untraced run sets up kStacks stacks (setup_s is their median) and
// drives each through kRounds / kStacks rounds of the phases; a traced
// run drives one stack through all kRounds.
constexpr int kStacks = 3;
constexpr int kRounds = 3;
constexpr double kLatencyShare = 0.5;     // of --seconds; overload takes
constexpr double kSaturationShare = 0.25; // the rest
// Query mix parameters.
constexpr int kTargets = 4;       // per kDistances / kReachability query
constexpr int kKHopHops = 2;      // kKHop max_hops
constexpr int kMaxTolerance = 2;  // p2p tolerance drawn from 0..2
// Edge updates.
constexpr int kEdgesPerFrame = 100;
constexpr int kProbeFrames = 400;         // static workloads, after the phases
constexpr double kProbeFramesPerS = 200;
// Answer checks, per stack.
constexpr size_t kCheckQueries = 256;     // half latency, half saturation
constexpr size_t kCheckVersions = 4;      // snapshot versions covered
constexpr size_t kSketchChecksPerVersion = 8;
constexpr int kCheckThreads = 4;
// Traced-run probes.
constexpr int kProbeQueries = 40;  // per query type outside the mix
constexpr int kBfsReps = 3;        // timed ComputeLevels calls per variant
// With sketches off, the sketch layer is timed on a standalone sketch.
constexpr int kStandaloneSketchClusters = 8;

// The constants that differ between workloads. run.py passes every one
// that applies to the workload; the harness has no defaults for them.
struct Config {
  std::string workload;
  std::string out_dir;
  int64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Graph and engine. avg_degree applies to "social" graphs only,
  // edge_factor to "kron".
  std::string graph;
  int64_t log2_vertices = -1;
  double avg_degree = -1;
  int64_t edge_factor = -1;
  int64_t graph_seed = -1;
  int64_t sketch_clusters = -1;  // 0 = sketches off
  // Query mix: "type:weight,..." over kTypeNames.
  std::string mix;
  // Load shape.
  double latency_qps = -1;
  double overload_qps = -1;
  int64_t deadline_ms = -1;
  // A wide warm-up window lets the engine meet its widest batch (and
  // allocate its largest level buffer) before anything is measured.
  int64_t warmup_window = -1;
  double churn_frames_per_s = -1;  // 0 = static
};

int TypeIndex(QueryType type) {
  switch (type) {
    case QueryType::kLevels: return 0;
    case QueryType::kDistances: return 1;
    case QueryType::kReachability: return 2;
    case QueryType::kKHop: return 3;
    case QueryType::kPointToPointDistance: return 4;
  }
  return 0;
}

QueryType TypeFromIndex(int index) {
  static constexpr QueryType kTypes[kNumTypes] = {
      QueryType::kLevels, QueryType::kDistances, QueryType::kReachability,
      QueryType::kKHop, QueryType::kPointToPointDistance};
  return kTypes[index];
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_harness: %s\n", message.c_str());
  std::fflush(nullptr);
  std::_Exit(2);
}

// Dies naming every setting the workload needs but was not given.
void RequireSettings(const Config& c) {
  std::string missing;
  auto need = [&](bool given, const char* name) {
    if (!given) missing += std::string(missing.empty() ? "" : ", ") + "--" + name;
  };
  need(!c.out_dir.empty(), "out");
  need(c.graph == "social" || c.graph == "kron", "graph (social | kron)");
  need(c.log2_vertices > 0, "log2_vertices");
  need(c.graph != "social" || c.avg_degree > 0, "avg_degree");
  need(c.graph != "kron" || c.edge_factor > 0, "edge_factor");
  need(c.graph_seed >= 0, "graph_seed");
  need(c.sketch_clusters >= 0, "sketch_clusters");
  need(!c.mix.empty(), "mix");
  need(c.latency_qps > 0, "latency_qps");
  need(c.overload_qps > 0, "overload_qps");
  need(c.deadline_ms > 0, "deadline_ms");
  need(c.warmup_window > 0, "warmup_window");
  need(c.churn_frames_per_s >= 0, "churn_frames_per_s");
  if (!missing.empty()) Die("missing or invalid: " + missing);
}

// 64-bit digest of `bytes` bytes. The checks compare answers by digest,
// so the load generator keeps no level row.
uint64_t Digest(const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = SplitMix64(bytes);
  size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    uint64_t word;
    std::memcpy(&word, p + i, 8);
    h = (std::rotl(h, 27) ^ word) * 0x9e3779b97f4a7c15ULL;
  }
  uint64_t tail = 0;
  if (i < bytes) std::memcpy(&tail, p + i, bytes - i);
  return SplitMix64(h ^ tail);
}

template <typename T>
uint64_t Digest(const std::vector<T>& xs) {
  return Digest(xs.data(), xs.size() * sizeof(T));
}

std::string JsonList(const std::vector<double>& xs) {
  std::string out = "[";
  for (size_t i = 0; i < xs.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ", ", xs[i]);
    out += buf;
  }
  return out + "]";
}

// ---- Spans (traced runs) ----

struct Span {
  const char* name;
  const char* track;
  uint64_t id = 0;      // request id; spans of one request share it
  uint64_t parent = 0;  // id of the causing span's request (0 = root)
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// In-memory span store, written out as Chrome trace JSON at exit.
class SpanLog {
 public:
  void Add(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  bool Write(const std::string& path, int64_t origin_ns) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    std::map<std::string, int> tids;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const int tid = tids.emplace(s.track, static_cast<int>(tids.size()) + 1)
                          .first->second;
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "%s\n{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
          "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
          "{\"id\": %llu, \"parent\": %llu}}",
          i == 0 ? "" : ",", s.name, tid,
          static_cast<double>(s.start_ns - origin_ns) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3,
          static_cast<unsigned long long>(s.id),
          static_cast<unsigned long long>(s.parent));
      out << buf;
    }
    for (const auto& [track, tid] : tids) {
      out << ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
             "\"tid\": "
          << tid << ", \"args\": {\"name\": \"" << track << "\"}}";
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---- Workload inputs ----

// Deterministic query stream: request `id` always maps to the same
// query for a given seed, so checks and the engine replay regenerate
// queries instead of storing them.
class QueryMix {
 public:
  QueryMix(const Config& config, const pbfs::Graph& graph)
      : config_(config), num_vertices_(graph.num_vertices()) {
    // Sources are drawn from non-isolated vertices, as Graph500 draws
    // its search keys; targets from all vertices.
    for (Vertex v = 0; v < num_vertices_; ++v) {
      if (graph.Degree(v) > 0) sources_.push_back(v);
    }
    std::stringstream ss(config.mix);
    std::string item;
    while (std::getline(ss, item, ',')) {
      const size_t colon = item.find(':');
      const std::string name = item.substr(0, colon);
      const int64_t weight =
          colon == std::string::npos ? 1 : std::stoll(item.substr(colon + 1));
      int type = -1;
      for (int t = 0; t < kNumTypes; ++t) {
        if (name == kTypeNames[t]) type = t;
      }
      if (type < 0 || weight <= 0) Die("bad --mix entry '" + item + "'");
      weights_[type] += weight;
      total_weight_ += weight;
    }
    if (total_weight_ == 0 || sources_.empty()) Die("empty query mix");
  }

  bool InMix(int type) const { return weights_[type] > 0; }

  // forced_type < 0 draws the type from the mix.
  QueryRequest Make(uint64_t id, int forced_type = -1) const {
    Rng rng(SplitMix64(static_cast<uint64_t>(config_.seed) * 0x9e3779b97f4a7c15ULL ^
                       id));
    int type = forced_type;
    uint64_t pick = rng.NextBounded(static_cast<uint64_t>(total_weight_));
    for (int t = 0; type < 0 && t < kNumTypes; ++t) {
      if (pick < static_cast<uint64_t>(weights_[t])) type = t;
      pick -= std::min<uint64_t>(pick, static_cast<uint64_t>(weights_[t]));
    }
    QueryRequest req;
    req.request_id = id;
    req.type = TypeFromIndex(type);
    req.source = sources_[rng.NextBounded(sources_.size())];
    switch (req.type) {
      case QueryType::kLevels:
        break;
      case QueryType::kDistances:
      case QueryType::kReachability:
        for (int i = 0; i < kTargets; ++i) {
          req.targets.push_back(static_cast<Vertex>(rng.NextBounded(num_vertices_)));
        }
        break;
      case QueryType::kKHop:
        req.max_hops = kKHopHops;
        break;
      case QueryType::kPointToPointDistance:
        req.targets.push_back(static_cast<Vertex>(rng.NextBounded(num_vertices_)));
        req.tolerance = static_cast<Level>(rng.NextBounded(kMaxTolerance + 1));
        break;
    }
    return req;
  }

  static pbfs::Query ToQuery(const QueryRequest& req) {
    pbfs::Query query;
    query.type = req.type;
    query.source = req.source;
    query.targets = req.targets;
    query.tolerance = req.tolerance;
    if (req.type == QueryType::kKHop) query.max_hops = req.max_hops;
    return query;
  }

 private:
  const Config& config_;
  Vertex num_vertices_;
  std::vector<Vertex> sources_;
  int64_t weights_[kNumTypes] = {};
  int64_t total_weight_ = 0;
};

// Deterministic edge-update frames: alternate inserts of random edges
// and deletes of the oldest edge this stream inserted.
class UpdateStream {
 public:
  UpdateStream(uint64_t seed, Vertex num_vertices)
      : rng_(SplitMix64(seed ^ 0x5eedf00dULL)), n_(num_vertices) {}

  std::vector<pbfs::EdgeUpdate> Next(int64_t count) {
    std::vector<pbfs::EdgeUpdate> frame;
    for (int64_t i = 0; i < count; ++i) {
      if (i % 2 == 1 && !inserted_.empty()) {
        pbfs::EdgeUpdate del = inserted_.front();
        inserted_.pop_front();
        del.insert = false;
        frame.push_back(del);
        continue;
      }
      const Vertex u = static_cast<Vertex>(rng_.NextBounded(n_));
      Vertex v = static_cast<Vertex>(rng_.NextBounded(n_));
      if (u == v) v = (v + 1) % n_;
      frame.push_back({u, v, /*insert=*/true});
      inserted_.push_back(frame.back());
    }
    return frame;
  }

 private:
  Rng rng_;
  Vertex n_;
  std::deque<pbfs::EdgeUpdate> inserted_;
};

// ---- The stack under test ----

struct Stack {
  pbfs::Graph graph;
  std::unique_ptr<pbfs::WorkerPool> pool;
  std::unique_ptr<pbfs::QueryEngine> engine;
  std::unique_ptr<pbfs::server::PbfsServer> server;
  double graph_build_s = 0;
  double setup_s = 0;
};

pbfs::Graph MakeGraph(const Config& config) {
  if (config.graph == "social") {
    return pbfs::SocialNetwork({
        .num_vertices = Vertex{1} << config.log2_vertices,
        .avg_degree = config.avg_degree,
        .seed = static_cast<uint64_t>(config.graph_seed),
    });
  }
  if (config.graph == "kron") {
    return pbfs::Kronecker({
        .scale = static_cast<int>(config.log2_vertices),
        .edge_factor = static_cast<int>(config.edge_factor),
        .seed = static_cast<uint64_t>(config.graph_seed),
    });
  }
  Die("unknown --graph '" + config.graph + "'");
}

// Graph generation, engine start (sketch build + WaitSketchIdle),
// server start, and one answered query: the time until the first
// query can be served, measured from `start_ns`.
std::unique_ptr<Stack> BuildStack(const Config& config, int64_t start_ns) {
  auto stack = std::make_unique<Stack>();
  const int64_t graph_start_ns = NowNanos();
  stack->graph = MakeGraph(config);
  stack->graph_build_s = static_cast<double>(NowNanos() - graph_start_ns) / 1e9;
  stack->pool = std::make_unique<pbfs::WorkerPool>(
      pbfs::WorkerPool::Options{.num_workers = kWorkers});
  pbfs::QueryEngineOptions options;
  if (config.sketch_clusters > 0) {
    options.enable_sketches = true;
    options.sketch.num_clusters = static_cast<int>(config.sketch_clusters);
  }
  stack->engine = std::make_unique<pbfs::QueryEngine>(stack->graph,
                                                      stack->pool.get(), options);
  stack->engine->WaitSketchIdle();
  stack->server = std::make_unique<pbfs::server::PbfsServer>(
      stack->engine.get(), pbfs::server::ServerOptions{});
  if (!stack->server->Start()) Die("server failed to listen");
  pbfs::server::PbfsClient client;
  if (!client.Connect({.port = stack->server->port()})) Die("connect failed");
  QueryRequest ready;
  ready.request_id = 1;
  ready.type = QueryType::kKHop;
  ready.max_hops = 1;
  QueryResponse resp;
  std::string error;
  if (!client.Call(ready, &resp, &error) || resp.status != QueryStatus::kOk) {
    Die("readiness query failed: " + error);
  }
  stack->setup_s = static_cast<double>(NowNanos() - start_ns) / 1e9;
  return stack;
}

// ---- Per-request records ----

struct Rec {
  uint64_t id = 0;
  Phase phase = kWarmup;
  int type = 0;
  int64_t sched_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  int status = -1;  // QueryStatus; -1 = no response (connection failure)
  bool sketch_resolved = false;
  uint64_t version = 0;
  uint64_t bytes = 0;  // encoded response frame (traced runs)
  bool wrong = false;  // failed the answer check
};

// What the checks need of an OK answer: its scalars and digests of its
// vectors, a few dozen bytes however large the answer.
struct Answer {
  uint64_t version = 0;
  uint64_t vertices_reached = 0;
  uint64_t levels_digest = 0;
  uint64_t reachable_digest = 0;
  uint64_t khop_digest = 0;
  Level distance = 0;
  Level bound_lower = 0;
  Level bound_upper = 0;
  bool sketch_resolved = false;

  explicit Answer(const QueryResponse& q)
      : version(q.snapshot_version),
        vertices_reached(q.vertices_reached),
        levels_digest(Digest(q.levels)),
        reachable_digest(Digest(q.reachable)),
        khop_digest(Digest(q.khop_sizes)),
        distance(q.distance),
        bound_lower(q.bound_lower),
        bound_upper(q.bound_upper),
        sketch_resolved(q.sketch_resolved) {}
};

// Appends keep element addresses stable (deque), so a Rec* handed out
// under the lock may be filled in without it.
class RecordBook {
 public:
  Rec* Add(Rec rec) {
    std::lock_guard<std::mutex> lock(mu_);
    recs_.push_back(rec);
    return &recs_.back();
  }
  std::deque<Rec>& all() { return recs_; }  // after all writers joined

 private:
  std::mutex mu_;
  std::deque<Rec> recs_;
};

// ---- Load generator: query connections ----

class LoadGen {
 public:
  // Request ids start above `id_base`, so several generators in one run
  // never share an id.
  LoadGen(const QueryMix& mix, RecordBook* book, SpanLog* spans, int port,
          uint64_t id_base)
      : mix_(mix), book_(book), spans_(spans), next_id_(id_base + 1) {
    for (int c = 0; c < kConnections; ++c) {
      auto conn = std::make_unique<Conn>();
      // Short receive timeouts let the reader threads notice Stop().
      if (!conn->client.Connect({.port = port, .recv_timeout_s = 0.2})) {
        Die("connect failed");
      }
      conns_.push_back(std::move(conn));
    }
    for (size_t c = 0; c < conns_.size(); ++c) {
      conns_[c]->reader = std::thread([this, c] { ReaderMain(c); });
    }
  }

  ~LoadGen() {
    stop_.store(true);
    for (auto& conn : conns_) conn->reader.join();
  }

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  void set_tracing(bool on) { tracing_ = on; }

  // Evenly spaced sends at `qps` for `seconds`, round-robin over the
  // connections. Each request is timed from its scheduled send time.
  void OpenLoop(Phase phase, double qps, double seconds, uint32_t deadline_ms) {
    const int64_t start = NowNanos();
    const int64_t count = static_cast<int64_t>(qps * seconds);
    for (int64_t i = 0; i < count; ++i) {
      const int64_t sched = start + static_cast<int64_t>(static_cast<double>(i) / qps * 1e9);
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(sched)));
      Send(i % conns_.size(), phase, sched, deadline_ms, -1);
    }
  }

  // Each of `connections` keeps `window` requests outstanding: the
  // reader sends the next one as each answer arrives. Runs for
  // `seconds`, or until `max_requests` were sent (0 = no cap).
  void ClosedLoop(Phase phase, int64_t connections, int64_t window,
                  double seconds, int64_t max_requests = 0,
                  int forced_type = -1) {
    closed_phase_ = phase;
    closed_type_ = forced_type;
    closed_budget_.store(max_requests > 0 ? max_requests : INT64_MAX);
    closed_end_ns_.store(NowNanos() + static_cast<int64_t>(seconds * 1e9));
    closed_conns_.store(connections);
    for (int64_t c = 0; c < connections; ++c) {
      for (int64_t w = 0; w < window; ++w) TrySendClosed(static_cast<size_t>(c));
    }
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return outstanding_ == 0 && ClosedOver(); });
    closed_conns_.store(0);
  }

  // Waits for every outstanding answer; false on timeout.
  bool Drain(double max_wait_s) {
    std::unique_lock<std::mutex> lock(mu_);
    return done_cv_.wait_for(
        lock, std::chrono::duration<double>(max_wait_s),
        [&] { return outstanding_ == 0; });
  }

  // Every OK answer of the latency and saturation phases, in the compact
  // form the checks need, keyed by request id.
  std::map<uint64_t, Answer>& answers() { return answers_; }
  std::unordered_map<uint64_t, Rec*>& by_id() { return by_id_; }

 private:
  struct Conn {
    pbfs::server::PbfsClient client;
    std::mutex send_mu;
    std::thread reader;
  };

  bool ClosedOver() const {
    return closed_budget_.load() <= 0 || NowNanos() >= closed_end_ns_.load();
  }

  void TrySendClosed(size_t c) {
    if (c >= static_cast<size_t>(closed_conns_.load()) || ClosedOver()) return;
    if (closed_budget_.fetch_sub(1) <= 0) return;
    Send(c, closed_phase_, NowNanos(), 0, closed_type_);
  }

  void Send(size_t c, Phase phase, int64_t sched_ns, uint32_t deadline_ms,
            int forced_type) {
    const uint64_t id = next_id_.fetch_add(1);
    QueryRequest req = mix_.Make(id, forced_type);
    req.deadline_ms = deadline_ms;
    Conn& conn = *conns_[c];
    std::lock_guard<std::mutex> send_lock(conn.send_mu);
    Rec rec;
    rec.id = id;
    rec.phase = phase;
    rec.type = TypeIndex(req.type);
    rec.sched_ns = sched_ns;
    rec.sent_ns = NowNanos();
    Rec* slot = book_->Add(rec);
    {
      std::lock_guard<std::mutex> lock(mu_);
      by_id_[id] = slot;
      ++outstanding_;
    }
    if (!conn.client.SendQuery(req)) Die("send failed");
  }

  void ReaderMain(size_t c) {
    Conn& conn = *conns_[c];
    pbfs::server::Response resp;
    std::string error;
    while (!stop_.load()) {
      if (!conn.client.ReadResponse(&resp, &error)) {
        if (error == "recv failed/timeout") continue;
        if (stop_.load()) break;
        Die("connection " + std::to_string(c) + ": " + error);
      }
      const int64_t done = NowNanos();
      QueryResponse& q = resp.query;
      Rec* rec = nullptr;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = by_id_.find(q.request_id);
        if (it == by_id_.end()) Die("answer for an unknown request id");
        rec = it->second;
      }
      rec->done_ns = done;
      rec->status = static_cast<int>(q.status);
      rec->sketch_resolved = q.sketch_resolved;
      rec->version = q.snapshot_version;
      if (tracing_) {
        std::string encoded;
        pbfs::server::EncodeQueryResponse(q, &encoded);
        rec->bytes = encoded.size();
        spans_->Add({"wire.query", kTypeNames[rec->type], rec->id, 0,
                     rec->sched_ns, done});
        spans_->Add({"client.send", "client.send", rec->id, rec->id,
                     rec->sched_ns, rec->sent_ns});
      }
      const bool keep = q.status == QueryStatus::kOk &&
                        (rec->phase == kLatency || rec->phase == kSaturation);
      // Refill before this answer stops counting as outstanding, so a
      // closed loop never looks drained while a refill is under way.
      if (closed_conns_.load() > 0) TrySendClosed(c);
      std::optional<Answer> answer;
      if (keep) answer.emplace(q);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (answer) answers_.emplace(q.request_id, *answer);
        --outstanding_;
      }
      done_cv_.notify_all();
    }
  }

  const QueryMix& mix_;
  RecordBook* book_;
  SpanLog* spans_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> tracing_{false};
  std::atomic<uint64_t> next_id_;

  Phase closed_phase_ = kWarmup;
  int closed_type_ = -1;
  std::atomic<int64_t> closed_budget_{0};
  std::atomic<int64_t> closed_end_ns_{0};
  std::atomic<int64_t> closed_conns_{0};

  std::mutex mu_;
  std::condition_variable done_cv_;
  int64_t outstanding_ = 0;
  std::unordered_map<uint64_t, Rec*> by_id_;
  std::map<uint64_t, Answer> answers_;
};

// ---- Writer: edge-update frames ----

struct Frame {
  std::vector<pbfs::EdgeUpdate> updates;
  uint64_t content_version = 0;  // from the ack
};

// One writer connection sending frames at a fixed rate, from its own
// thread (Start/Stop) or the caller's (Probe); each ack is timed from
// the frame's scheduled send time.
class Writer {
 public:
  Writer(const Config& config, Vertex num_vertices, int port, RecordBook* book)
      : config_(config), stream_(static_cast<uint64_t>(config.seed), num_vertices),
        book_(book) {
    if (!client_.Connect({.port = port})) Die("writer connect failed");
  }
  ~Writer() { Stop(); }

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void Start() {
    thread_ = std::thread([this] {
      const int64_t period = static_cast<int64_t>(1e9 / config_.churn_frames_per_s);
      int64_t sched = NowNanos();
      while (!stop_.load()) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(sched)));
        SendFrame(kWarmup, sched);
        sched += period;
      }
    });
  }

  // `frames` frames at `per_s`, from the calling thread.
  void Probe(int64_t frames, double per_s) {
    const int64_t start = NowNanos();
    for (int64_t i = 0; i < frames; ++i) {
      const int64_t sched = start + static_cast<int64_t>(static_cast<double>(i) / per_s * 1e9);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(sched)));
      SendFrame(kProbe, sched);
    }
  }

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  const std::vector<Frame>& frames() const { return frames_; }

 private:
  void SendFrame(Phase phase, int64_t sched_ns) {
    pbfs::server::UpdateRequest req;
    req.request_id = frames_.size() + 1;
    req.updates = stream_.Next(kEdgesPerFrame);
    Rec rec;
    rec.id = req.request_id;
    rec.phase = phase;
    rec.type = kUpdateType;
    rec.sched_ns = sched_ns;
    rec.sent_ns = NowNanos();
    pbfs::server::UpdateResponse ack;
    std::string error;
    if (!client_.ApplyUpdates(req, &ack, &error)) Die("update frame: " + error);
    rec.done_ns = NowNanos();
    rec.status = static_cast<int>(QueryStatus::kOk);
    rec.version = ack.content_version;
    book_->Add(rec);
    frames_.push_back({std::move(req.updates), ack.content_version});
  }

  const Config& config_;
  UpdateStream stream_;
  RecordBook* book_;
  pbfs::server::PbfsClient client_;
  std::vector<Frame> frames_;  // writer thread only until Stop()
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---- Layer stats ----

// Public stats of every layer at one instant; run.py differences them
// across a phase.
std::string LayerSnapshot(const Stack& stack) {
  const pbfs::server::ServerStats s = stack.server->GetStats();
  const pbfs::QueryEngineStats e = stack.engine->Stats();
  const pbfs::Compactor::Stats c = stack.engine->CompactorStats();
  const pbfs::SketchRebuilder::Stats k = stack.engine->SketchStats();
  const pbfs::WorkerPool::SchedulerStats w = stack.pool->scheduler_stats();
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\"t_ns\": %lld, "
      "\"server.frames_rx\": %llu, \"server.backpressure_events\": %llu, "
      "\"server.queries_timed_out\": %llu, \"server.shed_queue_full\": %llu, "
      "\"server.shed_deadline\": %llu, \"server.expired_in_queue\": %llu, "
      "\"engine.queries_admitted\": %llu, \"engine.queries_completed\": %llu, "
      "\"engine.queries_expired\": %llu, \"engine.batches_run\": %llu, "
      "\"engine.single_runs\": %llu, \"engine.sketch_hits\": %llu, "
      "\"engine.sketch_fallbacks\": %llu, \"engine.sketch_stale\": %llu, "
      "\"engine.occupancy_count\": %llu, \"engine.occupancy_sum\": %.17g, "
      "\"engine.coalesce_count\": %llu, \"engine.coalesce_sum_ms\": %.17g, "
      "\"compactor.compactions\": %llu, \"compactor.total_ms\": %.17g, "
      "\"sketch.rebuilds\": %llu, \"sketch.total_build_ms\": %.17g, "
      "\"sched.local_tasks\": %llu, \"sched.stolen_tasks\": %llu}",
      static_cast<long long>(NowNanos()),
      static_cast<unsigned long long>(s.frames_rx),
      static_cast<unsigned long long>(s.backpressure_events),
      static_cast<unsigned long long>(s.queries_timed_out),
      static_cast<unsigned long long>(s.admission.shed_queue_full),
      static_cast<unsigned long long>(s.admission.shed_deadline),
      static_cast<unsigned long long>(s.admission.expired_in_queue),
      static_cast<unsigned long long>(e.queries_admitted),
      static_cast<unsigned long long>(e.queries_completed),
      static_cast<unsigned long long>(e.queries_expired),
      static_cast<unsigned long long>(e.batches_run),
      static_cast<unsigned long long>(e.single_runs),
      static_cast<unsigned long long>(e.sketch_hits),
      static_cast<unsigned long long>(e.sketch_fallbacks),
      static_cast<unsigned long long>(e.sketch_stale),
      static_cast<unsigned long long>(e.batch_occupancy.count()),
      e.batch_occupancy.sum(),
      static_cast<unsigned long long>(e.coalesce_wait_ms.count()),
      e.coalesce_wait_ms.sum(),
      static_cast<unsigned long long>(c.compactions), c.total_duration_ms,
      static_cast<unsigned long long>(k.rebuilds), k.total_build_ms,
      static_cast<unsigned long long>(w.local_tasks),
      static_cast<unsigned long long>(w.stolen_tasks));
  return buf;
}

int64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6));
  }
  Die("no VmHWM in /proc/self/status");
}

// ---- Answer checks ----

uint64_t EdgeKey(Vertex u, Vertex v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

// The graph at `content_version`: the base plus, in order, every frame
// acked at or below that version (the benchmark is the only writer).
pbfs::Graph GraphAtVersion(const pbfs::Graph& base,
                           const std::vector<Frame>& frames,
                           uint64_t content_version) {
  std::unordered_map<uint64_t, bool> state;
  for (const Frame& frame : frames) {
    if (frame.content_version > content_version) continue;
    for (const pbfs::EdgeUpdate& u : frame.updates) {
      if (u.u != u.v) state[EdgeKey(u.u, u.v)] = u.insert;
    }
  }
  std::vector<pbfs::Edge> edges;
  for (Vertex u = 0; u < base.num_vertices(); ++u) {
    for (Vertex v : base.Neighbors(u)) {
      if (u >= v) continue;
      auto it = state.find(EdgeKey(u, v));
      if (it == state.end() || it->second) edges.push_back({u, v});
    }
  }
  for (const auto& [key, present] : state) {
    const Vertex u = static_cast<Vertex>(key >> 32);
    const Vertex v = static_cast<Vertex>(key & 0xFFFFFFFFu);
    if (present && !base.HasEdge(u, v)) edges.push_back({u, v});
  }
  return pbfs::Graph::FromEdges(base.num_vertices(), edges);
}

// `row` is the true level row of the request's source.
bool AnswerMatches(const QueryRequest& req, const Answer& got, const Level* row,
                   Vertex n, bool* sketch_checked) {
  // The vectors the answer must carry; the ones its type does not use
  // stay empty.
  std::vector<Level> levels;
  std::vector<uint8_t> reachable;
  std::vector<uint64_t> khop_sizes;
  uint64_t levels_digest = 0;
  uint64_t reached = 0;
  switch (req.type) {
    case QueryType::kLevels:
      levels_digest = Digest(row, static_cast<size_t>(n) * sizeof(Level));
      for (Vertex v = 0; v < n; ++v) reached += row[v] != pbfs::kLevelUnreached ? 1 : 0;
      break;
    case QueryType::kDistances:
      for (Vertex t : req.targets) levels.push_back(row[t]);
      break;
    case QueryType::kReachability:
      for (Vertex t : req.targets) reachable.push_back(row[t] != pbfs::kLevelUnreached);
      break;
    case QueryType::kKHop:
      khop_sizes.assign(static_cast<size_t>(req.max_hops) + 1, 0);
      for (Vertex v = 0; v < n; ++v) {
        const Level l = row[v];
        if (l == 0 || l == pbfs::kLevelUnreached || l > req.max_hops) continue;
        for (size_t h = l; h < khop_sizes.size(); ++h) ++khop_sizes[h];
      }
      break;
    case QueryType::kPointToPointDistance: {
      const Level truth = row[req.targets[0]];
      if (got.sketch_resolved) {
        // Served from the sketch: the truth lies in the bounds, the gap
        // fits the tolerance, and the served distance is the upper bound.
        *sketch_checked = true;
        if (got.bound_lower > truth || truth > got.bound_upper ||
            got.bound_upper - got.bound_lower > req.tolerance ||
            got.distance != got.bound_upper) {
          return false;
        }
      } else if (got.distance != truth || got.bound_lower != truth ||
                 got.bound_upper != truth) {
        return false;
      }
      break;
    }
  }
  if (req.type != QueryType::kLevels) levels_digest = Digest(levels);
  return got.levels_digest == levels_digest &&
         got.reachable_digest == Digest(reachable) &&
         got.khop_digest == Digest(khop_sizes) && got.vertices_reached == reached;
}

struct CheckSummary {
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  uint64_t sketch_checked = 0;
  uint64_t versions = 0;

  void Add(const CheckSummary& other) {
    checked += other.checked;
    mismatches += other.mismatches;
    sketch_checked += other.sketch_checked;
    versions += other.versions;
  }
};

// Diffs a deterministic sample of one stack's answers against the
// `sequential` registry runner on the graph at each answer's snapshot
// version: per version, an even spread over the latency phase's answers
// and one over the saturation phase's, plus sketch-served answers. Marks
// failing records `wrong`.
CheckSummary CheckAnswers(const QueryMix& mix, const pbfs::Graph& base,
                          const std::vector<Frame>& frames,
                          const std::map<uint64_t, Answer>& answers,
                          const std::unordered_map<uint64_t, Rec*>& by_id) {
  std::map<uint64_t, std::vector<uint64_t>> by_version;
  std::map<uint64_t, std::vector<uint64_t>> sketch_by_version;
  for (const auto& [id, answer] : answers) {
    by_version[answer.version].push_back(id);
    if (answer.sketch_resolved) sketch_by_version[answer.version].push_back(id);
  }
  // The version with the most sketch-served answers first, so those
  // are checked even when rare; then the versions with the most
  // answers (ties: the oldest).
  std::vector<uint64_t> versions;
  if (!sketch_by_version.empty()) {
    versions.push_back(std::max_element(sketch_by_version.begin(),
                                        sketch_by_version.end(),
                                        [](const auto& a, const auto& b) {
                                          return a.second.size() < b.second.size();
                                        })
                           ->first);
  }
  std::vector<std::pair<size_t, uint64_t>> ranked;
  for (const auto& [version, ids] : by_version) {
    ranked.emplace_back(ids.size(), version);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (const auto& [count, version] : ranked) {
    if (versions.size() >= kCheckVersions) break;
    if (std::find(versions.begin(), versions.end(), version) == versions.end()) {
      versions.push_back(version);
    }
  }
  CheckSummary summary;
  if (versions.empty()) return summary;
  const size_t per_version = std::max<size_t>(2, kCheckQueries / versions.size());
  // Up to `count` ids spread evenly over `ids`.
  auto spread = [](const std::vector<uint64_t>& ids, size_t count,
                   std::vector<uint64_t>* out) {
    const size_t take = std::min(count, ids.size());
    for (size_t i = 0; i < take; ++i) out->push_back(ids[i * ids.size() / take]);
  };
  for (uint64_t version : versions) {
    std::vector<uint64_t> latency, saturation;
    for (uint64_t id : by_version[version]) {
      (by_id.at(id)->phase == kLatency ? latency : saturation).push_back(id);
    }
    std::vector<uint64_t> sample;
    spread(latency, per_version / 2, &sample);
    spread(saturation, per_version - per_version / 2, &sample);
    spread(sketch_by_version[version], kSketchChecksPerVersion, &sample);
    std::sort(sample.begin(), sample.end());
    sample.erase(std::unique(sample.begin(), sample.end()), sample.end());
    const bool changed = std::any_of(frames.begin(), frames.end(), [&](const Frame& f) {
      return f.content_version <= version;
    });
    pbfs::Graph rebuilt;
    if (changed) rebuilt = GraphAtVersion(base, frames, version);
    const pbfs::Graph& graph = changed ? rebuilt : base;
    const Vertex n = graph.num_vertices();
    // One oracle BFS per sampled answer, spread over a few threads.
    std::vector<uint8_t> ok(sample.size()), sketch(sample.size());
    std::vector<std::thread> threads;
    for (int t = 0; t < kCheckThreads; ++t) {
      threads.emplace_back([&, t] {
        pbfs::SerialExecutor serial;
        auto oracle = pbfs::FindVariantRunner("sequential", graph, &serial);
        std::vector<Level> row(n);
        for (size_t i = static_cast<size_t>(t); i < sample.size(); i += kCheckThreads) {
          const QueryRequest req = mix.Make(sample[i], by_id.at(sample[i])->type);
          oracle->ComputeLevels(std::span<const Vertex>(&req.source, 1),
                                pbfs::BfsOptions{}, row.data());
          bool sketched = false;
          ok[i] = AnswerMatches(req, answers.at(sample[i]), row.data(), n, &sketched);
          sketch[i] = sketched;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (size_t i = 0; i < sample.size(); ++i) {
      ++summary.checked;
      summary.sketch_checked += sketch[i];
      if (ok[i]) continue;
      ++summary.mismatches;
      Rec* rec = by_id.at(sample[i]);
      rec->wrong = true;
      std::fprintf(stderr, "MISMATCH: request %llu (%s) at version %llu\n",
                   static_cast<unsigned long long>(sample[i]), kTypeNames[rec->type],
                   static_cast<unsigned long long>(version));
    }
    ++summary.versions;
  }
  return summary;
}

// ---- Traced-run extras: engine replay and direct layer timings ----

// Replays the wire latency phase's requests (same ids, in order, at the
// same rate, its segments back to back) into QueryEngine::Submit
// in-process, so the engine's own latency can be subtracted from the
// wire latency. Churn workloads also replay the writer at its rate
// through QueryEngine::ApplyUpdates.
void ReplayIntoEngine(const Config& config, const QueryMix& mix,
                      Vertex num_vertices, pbfs::QueryEngine* engine, const std::vector<Rec>& schedule,
                      RecordBook* book, SpanLog* spans,
                      std::vector<double>* publish_ms) {
  if (schedule.empty()) return;
  struct Waiting {
    Rec* rec;
    std::future<pbfs::QueryResult> result;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Waiting> incoming;
  bool submitted_all = false;
  // Each query is finished at the first sweep that finds its future
  // ready, whatever the order the queries were submitted in. Between
  // sweeps the waiter blocks on the oldest pending future for at most
  // kPoll, so an in-order completion wakes it at once. Sketch hits were
  // already stamped at Submit.
  constexpr auto kPoll = std::chrono::microseconds(100);
  std::thread waiter([&] {
    std::vector<Waiting> pending;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (pending.empty()) {
          cv.wait(lock, [&] { return !incoming.empty() || submitted_all; });
          if (incoming.empty()) return;
        }
        for (Waiting& w : incoming) pending.push_back(std::move(w));
        incoming.clear();
      }
      std::erase_if(pending, [&](Waiting& w) {
        if (w.result.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          return false;
        }
        if (w.rec->done_ns == 0) w.rec->done_ns = NowNanos();
        w.rec->status = static_cast<int>(w.result.get().status);
        spans->Add({"engine.submit", "engine", w.rec->id, 0, w.rec->sched_ns,
                    w.rec->done_ns});
        return true;
      });
      if (!pending.empty()) pending.front().result.wait_for(kPoll);
    }
  });
  std::atomic<bool> writer_stop{false};
  std::thread writer;
  if (config.churn_frames_per_s > 0) {
    writer = std::thread([&] {
      UpdateStream stream(static_cast<uint64_t>(config.seed) + 1, num_vertices);
      const int64_t period = static_cast<int64_t>(1e9 / config.churn_frames_per_s);
      int64_t sched = NowNanos();
      while (!writer_stop.load()) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(sched)));
        const auto frame = stream.Next(kEdgesPerFrame);
        const int64_t t0 = NowNanos();
        engine->ApplyUpdates(frame);
        const int64_t t1 = NowNanos();
        publish_ms->push_back(static_cast<double>(t1 - t0) / 1e6);
        spans->Add({"graph.apply_updates", "writer", 0, 0, t0, t1});
        sched += period;
      }
    });
  }
  const int64_t start = NowNanos();
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Rec& wire = schedule[i];
    Rec rec;
    rec.id = wire.id;
    rec.phase = kReplay;
    rec.type = wire.type;
    rec.sched_ns =
        start + static_cast<int64_t>(static_cast<double>(i) / config.latency_qps * 1e9);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(rec.sched_ns)));
    Rec* slot = book->Add(rec);
    slot->sent_ns = NowNanos();
    auto sub = engine->Submit(QueryMix::ToQuery(mix.Make(wire.id, wire.type)));
    if (sub.result.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      slot->done_ns = NowNanos();
    }
    std::lock_guard<std::mutex> lock(mu);
    incoming.push_back({slot, std::move(sub.result)});
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    submitted_all = true;
  }
  cv.notify_one();
  waiter.join();
  writer_stop.store(true);
  if (writer.joinable()) writer.join();
}


// The engine's kernels on the workload's graph and sources, timed
// through FindVariantRunner(...)->ComputeLevels on a private pool while
// the engine is idle. Returns the "bfs" JSON members.
std::string TimeBfsLayer(const QueryMix& mix, const pbfs::Graph& graph,
                         SpanLog* spans) {
  pbfs::WorkerPool pool({.num_workers = kWorkers});
  std::vector<Vertex> sources;
  for (uint64_t id = 0; sources.size() < 256; ++id) {
    sources.push_back(mix.Make(id).source);
  }
  const Vertex n = graph.num_vertices();
  struct Variant {
    const char* metric;
    const char* name;
    int width;
    size_t count;  // sources per ComputeLevels call
  };
  const Variant variants[] = {{"mspbfs_w64", "mspbfs", 64, 64},
                              {"mspbfs_w256", "mspbfs", 256, 256},
                              {"smspbfs_bit", "smspbfs_bit", 64, 1}};
  std::vector<Level> levels(sources.size() * static_cast<size_t>(n));
  std::string json;
  for (const Variant& v : variants) {
    auto runner = pbfs::FindVariantRunner(v.name, graph, &pool, v.width);
    const std::span<const Vertex> batch(sources.data(), v.count);
    std::vector<double> ms;
    for (int r = 0; r <= kBfsReps; ++r) {  // r = 0 warms up
      const int64_t t0 = NowNanos();
      runner->ComputeLevels(batch, pbfs::BfsOptions{}, levels.data());
      const int64_t t1 = NowNanos();
      if (r > 0) ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      spans->Add({v.metric, "bfs", 0, 0, t0, t1});
    }
    json += "\"" + std::string(v.metric) + "_ms\": " + JsonList(ms) + ", ";
  }
  // Work counts of one width-64 batch, computed twice on fresh kernel
  // instances: they are deterministic and must repeat exactly.
  uint64_t counts[2][4] = {};
  for (auto& pass : counts) {
    auto runner = pbfs::FindVariantRunner("mspbfs", graph, &pool, 64);
    pbfs::TraversalStats stats;
    pbfs::BfsOptions options;
    options.stats = &stats;
    runner->ComputeLevels(std::span<const Vertex>(sources.data(), 64), options,
                          levels.data());
    for (const auto& it : stats.iterations()) {
      for (uint64_t x : it.neighbors_visited) pass[0] += x;
      for (uint64_t x : it.states_updated) pass[1] += x;
      pass[2] += it.direction == pbfs::Direction::kBottomUp ? 1 : 0;
      pass[3] += 1;
    }
  }
  const char* const names[4] = {"edges_scanned", "states_updated",
                                "bottom_up_levels", "levels"};
  for (int k = 0; k < 4; ++k) {
    json += "\"" + std::string(names[k]) + "\": [" + std::to_string(counts[0][k]) +
            ", " + std::to_string(counts[1][k]) + "], ";
  }
  return json + "\"batch_sources\": 64";
}

// DistanceOracle::Resolve on the engine's published sketch, in batches
// of p2p pairs from the mix; ns per call, one value per batch. With
// sketches off, times BuildSketch of kStandaloneSketchClusters
// clusters first (on a pool the size of the engine's sketch pool) and
// resolves on that.
std::vector<double> TimeSketchResolve(
    const Config& config, const QueryMix& mix, const pbfs::Graph& graph,
    std::shared_ptr<const pbfs::ClusterSketch> sketch, double* standalone_build_ms,
    SpanLog* spans) {
  std::vector<double> ns;
  if (config.sketch_clusters == 0) {
    pbfs::WorkerPool pool({.num_workers = pbfs::QueryEngineOptions{}.sketch_workers});
    pbfs::SketchOptions options;
    options.num_clusters = kStandaloneSketchClusters;
    const int64_t t0 = NowNanos();
    sketch = pbfs::BuildSketch(graph, 1, &pool, options);
    const int64_t t1 = NowNanos();
    *standalone_build_ms = static_cast<double>(t1 - t0) / 1e6;
    spans->Add({"sketch.build", "sketch", 0, 0, t0, t1});
  }
  if (sketch == nullptr) return ns;
  const pbfs::DistanceOracle oracle(std::move(sketch));
  constexpr int kBatches = 10;
  constexpr int kPerBatch = 200;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<QueryRequest> pairs;
    for (int i = 0; i < kPerBatch; ++i) {
      pairs.push_back(mix.Make(static_cast<uint64_t>(b * kPerBatch + i),
                               TypeIndex(QueryType::kPointToPointDistance)));
    }
    const int64_t t0 = NowNanos();
    for (const QueryRequest& p : pairs) {
      oracle.Resolve(p.source, p.targets[0], p.tolerance);
    }
    const int64_t t1 = NowNanos();
    ns.push_back(static_cast<double>(t1 - t0) / kPerBatch);
    spans->Add({"sketch.resolve", "sketch", 0, 0, t0, t1});
  }
  return ns;
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t process_start_ns = NowNanos();
  Config config;
  pbfs::FlagParser flags(
      "Wire-level query benchmark harness (see perfbench/README.md)");
  flags.AddString("workload", &config.workload, "workload name (labels only)");
  flags.AddString("out", &config.out_dir, "directory for the output files");
  flags.AddInt64("seed", &config.seed, "workload seed");
  flags.AddDouble("seconds", &config.seconds, "measured seconds");
  flags.AddBool("trace", &config.trace, "traced run: spans + per-layer timings");
  flags.AddString("graph", &config.graph, "social | kron");
  flags.AddInt64("log2_vertices", &config.log2_vertices, "graph size");
  flags.AddDouble("avg_degree", &config.avg_degree, "social graph degree");
  flags.AddInt64("edge_factor", &config.edge_factor, "Kronecker edge factor");
  flags.AddInt64("graph_seed", &config.graph_seed, "graph generator seed");
  flags.AddInt64("sketch_clusters", &config.sketch_clusters, "0 = sketches off");
  flags.AddString("mix", &config.mix, "query mix, type:weight,...");
  flags.AddDouble("latency_qps", &config.latency_qps, "latency-phase rate");
  flags.AddDouble("overload_qps", &config.overload_qps, "overload-phase rate");
  flags.AddInt64("deadline_ms", &config.deadline_ms, "overload-phase deadline");
  flags.AddInt64("warmup_window", &config.warmup_window,
                 "closed-loop window per connection during warm-up");
  flags.AddDouble("churn_frames_per_s", &config.churn_frames_per_s,
                  "writer frame rate (0 = static)");
  flags.Parse(argc, argv);
  RequireSettings(config);
  const bool churn = config.churn_frames_per_s > 0;

  // The run is split over several stacks, each set up from scratch
  // (timed: setup_s) and then driven through its share of the rounds,
  // so the figures average over that many independent starts of the
  // engine's threads and background loops. Every phase runs in
  // interleaved segments, each recording the layer stats before and
  // after it. The last stack stays up for the traced extras.
  const int stacks = config.trace ? 1 : kStacks;
  static_assert(kRounds % kStacks == 0);
  const double latency_s = config.seconds * kLatencyShare / kRounds;
  const double saturation_s = config.seconds * kSaturationShare / kRounds;
  const double overload_s = config.seconds / kRounds - latency_s - saturation_s;
  constexpr double kDrainS = 30;

  std::vector<double> setup_s;
  std::vector<double> graph_build_s;
  RecordBook book;
  SpanLog spans;
  std::string segments_json;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<QueryMix> mix;
  std::unique_ptr<LoadGen> load;
  std::unique_ptr<Writer> writer;
  pbfs::SketchRebuilder::Stats initial_sketch;
  int64_t peak_rss_kb = 0;
  CheckSummary checks;
  auto run_segment = [&](Phase phase, const std::function<void()>& body) {
    const std::string begin = LayerSnapshot(*stack);
    body();
    if (!segments_json.empty()) segments_json += ", ";
    segments_json += "{\"phase\": \"" + std::string(kPhaseNames[phase]) +
                     "\", \"begin\": " + begin + ", \"end\": " +
                     LayerSnapshot(*stack) + "}";
  };
  for (int k = 0; k < stacks; ++k) {
    const bool last = k + 1 == stacks;
    stack = BuildStack(config, k == 0 ? process_start_ns : NowNanos());
    setup_s.push_back(stack->setup_s);
    graph_build_s.push_back(stack->graph_build_s);
    initial_sketch = stack->engine->SketchStats();
    // Every stack serves the same graph.
    if (mix == nullptr) mix = std::make_unique<QueryMix>(config, stack->graph);
    const int port = stack->server->port();
    load = std::make_unique<LoadGen>(*mix, &book, &spans, port,
                                     static_cast<uint64_t>(k) << 32);
    writer = std::make_unique<Writer>(config, stack->graph.num_vertices(), port, &book);
    if (churn) writer->Start();

    load->ClosedLoop(kWarmup, kConnections, config.warmup_window, kWarmupS);
    if (!churn) stack->engine->WaitSketchIdle();

    for (int round = 0; round < kRounds / stacks; ++round) {
      load->set_tracing(config.trace);
      run_segment(kLatency, [&] {
        load->OpenLoop(kLatency, config.latency_qps, latency_s, 0);
        if (!load->Drain(kDrainS)) Die("latency phase did not drain");
      });
      load->set_tracing(false);
      run_segment(kSaturation, [&] {
        load->ClosedLoop(kSaturation, kConnections, kWindow, saturation_s);
      });
      load->set_tracing(config.trace);
      if (config.trace) {
        run_segment(kSaturationTraced, [&] {
          load->ClosedLoop(kSaturationTraced, kConnections, kWindow, saturation_s);
        });
      }
      run_segment(kOverload, [&] {
        load->OpenLoop(kOverload, config.overload_qps, overload_s,
                       static_cast<uint32_t>(config.deadline_ms));
        if (!load->Drain(kDrainS)) Die("overload phase did not drain");
      });
    }
    writer->Stop();
    // The process's peak so far: every stack's phases, and the checks of
    // the stacks before this one, which ran after those were freed.
    peak_rss_kb = PeakRssKb();

    // This stack's answers against its own writer's frames; every stack
    // started from the same graph.
    const std::vector<Frame> frames = churn ? writer->frames() : std::vector<Frame>{};
    std::map<uint64_t, Answer> answers;
    std::unordered_map<uint64_t, Rec*> by_id;
    answers.swap(load->answers());
    by_id.swap(load->by_id());
    if (!last) {
      // Free all but the graph before checking, so the checks' buffers
      // never count toward a later stack's peak. The last stack stays up
      // for the probes below.
      writer.reset();
      load.reset();
      stack->server.reset();
      stack->engine.reset();
      stack->pool.reset();
      malloc_trim(0);
    }
    checks.Add(CheckAnswers(*mix, stack->graph, frames, answers, by_id));
    if (!last) stack.reset();
  }

  std::string traced_json;
  if (config.trace) {
    // Server layer: query types outside the mix, one at a time on the
    // idle server, so every per-type wire latency has samples.
    for (int t = 0; t < kNumTypes; ++t) {
      if (!mix->InMix(t)) load->ClosedLoop(kProbe, 1, 1, 60, kProbeQueries, t);
    }
    load->set_tracing(false);
    // Engine layer: the latency phase's schedule replayed in-process.
    std::vector<Rec> schedule;
    for (const Rec& rec : book.all()) {
      if (rec.phase == kLatency) schedule.push_back(rec);
    }
    std::sort(schedule.begin(), schedule.end(),
              [](const Rec& a, const Rec& b) { return a.sched_ns < b.sched_ns; });
    std::vector<double> publish_ms;
    ReplayIntoEngine(config, *mix, stack->graph.num_vertices(), stack->engine.get(),
                     schedule, &book, &spans, &publish_ms);
    stack->engine->Drain();
    const std::string bfs_json = TimeBfsLayer(*mix, stack->graph, &spans);
    double standalone_sketch_ms = 0;
    const std::vector<double> resolve_ns =
        TimeSketchResolve(config, *mix, stack->graph, stack->engine->CurrentSketch(),
                          &standalone_sketch_ms, &spans);
    const pbfs::Compactor::Stats compact_before = stack->engine->CompactorStats();
    if (!churn) {
      // Graph layer on a static workload: publishes on the idle engine,
      // and the compactions that fold them.
      UpdateStream stream(static_cast<uint64_t>(config.seed) + 2,
                          stack->graph.num_vertices());
      for (int i = 0; i < kProbeFrames; ++i) {
        const auto frame = stream.Next(kEdgesPerFrame);
        const int64_t t0 = NowNanos();
        stack->engine->ApplyUpdates(frame);
        const int64_t t1 = NowNanos();
        publish_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
        spans.Add({"graph.apply_updates", "writer", 0, 0, t0, t1});
      }
      stack->engine->WaitCompactorIdle();
    }
    const pbfs::Compactor::Stats compact_after = stack->engine->CompactorStats();
    char extra[256];
    std::snprintf(extra, sizeof(extra),
                  ", \"standalone_sketch_build_ms\": %.17g, \"probe_compactions\": "
                  "%llu, \"probe_compaction_ms\": %.17g",
                  standalone_sketch_ms,
                  static_cast<unsigned long long>(compact_after.compactions -
                                                  compact_before.compactions),
                  compact_after.total_duration_ms - compact_before.total_duration_ms);
    traced_json = ", \"traced\": {\"publish_ms\": " + JsonList(publish_ms) +
                  ", \"resolve_ns\": " + JsonList(resolve_ns) + extra +
                  ", \"bfs\": {" + bfs_json + "}}";
    if (!spans.Write(config.out_dir + "/trace.json", process_start_ns)) {
      Die("cannot write the trace file");
    }
  }
  // Static workloads time edge-update acks after everything else: the
  // first update starts the compactor and a sketch rebuild.
  if (!churn) writer->Probe(kProbeFrames, kProbeFramesPerS);

  {
    std::ofstream out(config.out_dir + "/records.tsv");
    out << "id\tphase\ttype\tsched_ns\tsent_ns\tdone_ns\tstatus\tsketch\tversion"
           "\tbytes\twrong\n";
    for (const Rec& r : book.all()) {
      out << r.id << '\t' << kPhaseNames[r.phase] << '\t'
          << (r.type == kUpdateType ? "update" : kTypeNames[r.type]) << '\t'
          << r.sched_ns << '\t' << r.sent_ns << '\t' << r.done_ns << '\t'
          << r.status << '\t' << (r.sketch_resolved ? 1 : 0) << '\t' << r.version
          << '\t' << r.bytes << '\t' << (r.wrong ? 1 : 0) << '\n';
    }
    if (!out) Die("cannot write records.tsv");
  }
  char head[1024];
  std::snprintf(
      head, sizeof(head),
      "{\"workload\": \"%s\", \"seed\": %lld, \"trace\": %s, "
      "\"num_vertices\": %u, \"num_edges\": %llu, \"peak_rss_kb\": %lld, "
      "\"sketch_build_ms\": %.17g, \"sketch_bytes\": %llu, "
      "\"checks\": {\"checked\": %llu, \"mismatches\": %llu, "
      "\"sketch_checked\": %llu, \"versions\": %llu}, ",
      config.workload.c_str(), static_cast<long long>(config.seed),
      config.trace ? "true" : "false", stack->graph.num_vertices(),
      static_cast<unsigned long long>(stack->graph.num_edges()),
      static_cast<long long>(peak_rss_kb), initial_sketch.last_build_ms,
      static_cast<unsigned long long>(initial_sketch.sketch_bytes),
      static_cast<unsigned long long>(checks.checked),
      static_cast<unsigned long long>(checks.mismatches),
      static_cast<unsigned long long>(checks.sketch_checked),
      static_cast<unsigned long long>(checks.versions));
  std::ofstream counters(config.out_dir + "/counters.json");
  counters << head << "\"setup_s\": " << JsonList(setup_s)
           << ", \"graph_build_s\": " << JsonList(graph_build_s)
           << ", \"segment_s\": {\"latency\": " << latency_s
           << ", \"saturation\": " << saturation_s << ", \"overload\": " << overload_s
           << "}, \"segments\": [" << segments_json << "]" << traced_json << "}\n";
  counters.close();
  if (!counters) Die("cannot write counters.json");
  std::fflush(nullptr);
  // Everything is written. Skip the teardown: a background sketch
  // rebuild would otherwise hold up exit until it finishes.
  std::_Exit(0);
}
