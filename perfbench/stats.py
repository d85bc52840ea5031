"""Statistics for the wire-level query benchmark.

Pure functions over the harness's output (records.tsv rows and
counters.json), kept apart from run.py so test_stats.py can check them
without building or running anything.
"""

import math
import statistics

# QueryStatus values on the wire (src/engine/query.h).
STATUS_OK = 0
STATUS_DEADLINE_EXCEEDED = 3
STATUS_SHED = 4

QUERY_TYPES = ("levels", "distances", "reachability", "khop", "p2p")
MEASURED_PHASES = ("latency", "saturation", "overload")


def quantile(values, q):
    """The q-quantile of `values`, interpolated linearly between ranks."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n, q):
    """How many of n samples lie above the q-quantile."""
    return n - math.ceil(q * n)


def tail_supported(n, q, min_beyond=10):
    """A percentile is reported only with at least `min_beyond` samples
    beyond it: p99 needs 1000 samples."""
    return samples_beyond(n, q) >= min_beyond


def parse_records(text):
    """records.tsv -> list of dicts with typed fields."""
    lines = text.splitlines()
    header = lines[0].split("\t")
    rows = []
    for line in lines[1:]:
        row = dict(zip(header, line.split("\t")))
        for key in ("id", "sched_ns", "sent_ns", "done_ns", "status", "sketch",
                    "version", "bytes", "wrong"):
            row[key] = int(row[key])
        rows.append(row)
    return rows


def failed(row):
    """A shed, an expiry, an invalid status, no answer, or a wrong one."""
    return row["status"] != STATUS_OK or row["wrong"] != 0


def open_loop_timing(rows):
    """(latency_ms, lag_ms) of open-loop requests.

    Latency runs from the scheduled send time, so a stall that delays
    later sends is charged to them; lag is how late the generator sent.
    Latency covers answered-OK requests only; lag covers all.
    """
    latency = [(r["done_ns"] - r["sched_ns"]) / 1e6 for r in rows if not failed(r)]
    lag = [(r["sent_ns"] - r["sched_ns"]) / 1e6 for r in rows]
    return latency, lag


def segments(counters, phases):
    return [g for g in counters["segments"] if g["phase"] in phases]


def delta(counters, phases, key):
    """Change of a layer counter summed over the segments of `phases`."""
    if isinstance(phases, str):
        phases = (phases,)
    return sum(g["end"][key] - g["begin"][key] for g in segments(counters, phases))


def wall_ms(counters, phases):
    return sum((g["end"]["t_ns"] - g["begin"]["t_ns"]) / 1e6
               for g in segments(counters, phases))


def ratio(num, den):
    return num / den if den else 0.0


def closed_loop_qps(counters, rows, phase):
    """OK answers per second of a closed-loop phase: per segment, the
    answers to requests it sent that arrived within its nominal length."""
    seconds = counters["segment_s"]["saturation"]
    ok = 0
    for g in segments(counters, (phase,)):
        start, end = g["begin"]["t_ns"], g["end"]["t_ns"]
        ok += sum(1 for r in rows if r["phase"] == phase and not failed(r)
                  and start <= r["sent_ns"] < end
                  and r["done_ns"] <= start + seconds * 1e9)
    return ok / (seconds * len(segments(counters, (phase,))))


def in_segments(counters, phases, t_ns):
    return any(g["begin"]["t_ns"] <= t_ns < g["end"]["t_ns"]
               for g in segments(counters, phases))


def split(rows):
    """{phase: query rows}, and the edge-update rows."""
    queries, updates = {}, []
    for r in rows:
        if r["type"] == "update":
            updates.append(r)
        else:
            queries.setdefault(r["phase"], []).append(r)
    return queries, updates


def end_to_end(counters, rows, shape):
    """End-to-end metrics of an untraced run, plus (attempted, failed)
    over the latency and saturation phases, and sample counts.

    `shape` holds the overload deadline and whether the workload churns.
    """
    queries, updates = split(rows)
    latency, _ = open_loop_timing(queries.get("latency", []))
    overload = queries.get("overload", [])
    good = [r for r in overload if not failed(r)
            and r["done_ns"] - r["sched_ns"] <= shape["deadline_ms"] * 1e6]
    overload_s = counters["segment_s"]["overload"] * len(segments(counters, ("overload",)))

    if shape["churn"]:  # the live writer's frames during the phases
        updates = [r for r in updates if in_segments(counters, MEASURED_PHASES, r["sched_ns"])]
        judged_updates = [r for r in updates
                          if in_segments(counters, ("latency", "saturation"), r["sched_ns"])]
    else:  # the probe sent after them
        updates = [r for r in updates if r["phase"] == "probe"]
        judged_updates = []
    update_ms = [(r["done_ns"] - r["sched_ns"]) / 1e6 for r in updates if not failed(r)]

    judged = queries.get("latency", []) + queries.get("saturation", []) + judged_updates
    n_failed = sum(1 for r in judged if failed(r))
    metrics = {
        "setup_s": statistics.median(counters["setup_s"]),
        "p50_ms": quantile(latency, 0.50),
        "p90_ms": quantile(latency, 0.90),
        "throughput_qps": closed_loop_qps(counters, rows, "saturation"),
        "goodput_qps": len(good) / overload_s,
        "ok_frac": 1.0 - ratio(n_failed, len(judged)),
        "update_p50_ms": quantile(update_ms, 0.50),
        "peak_rss_mb": counters["peak_rss_kb"] / 1024.0,
    }
    samples = {"latency": len(latency), "update": len(update_ms)}
    tails = {"update_p95_ms": quantile(update_ms, 0.95)}
    return metrics, len(judged), n_failed, samples, tails


def per_layer(counters, rows, tails):
    """Per-layer metrics of a traced run (see README.md for the map
    from each to the end-to-end metric it should move). `tails` are the
    tail percentiles end_to_end computed for this run."""
    queries, _ = split(rows)
    m = {"server.update_p95_ms": tails["update_p95_ms"]}

    lat_rows = queries.get("latency", [])
    wire, _ = open_loop_timing(lat_rows)
    for t in QUERY_TYPES:
        typed = [r for r in lat_rows if r["type"] == t]
        if not typed:  # outside the mix: probed on the idle server
            typed = [r for r in queries.get("probe", []) if r["type"] == t]
        ms, _ = open_loop_timing(typed)
        m["server.type_p50_ms." + t] = quantile(ms, 0.5) if ms else 0.0
    engine, _ = open_loop_timing(queries.get("replay", []))
    m["server.overhead_p50_ms"] = quantile(wire, 0.5) - quantile(engine, 0.5)
    sized = [r["bytes"] for r in lat_rows if r["bytes"] > 0 and not failed(r)]
    m["server.response_bytes_per_query"] = ratio(sum(sized), len(sized))
    overload = queries.get("overload", [])
    m["server.shed_frac"] = ratio(
        sum(r["status"] == STATUS_SHED for r in overload), len(overload))
    m["server.expired_frac"] = ratio(
        sum(r["status"] == STATUS_DEADLINE_EXCEEDED for r in overload), len(overload))
    m["server.backpressure_events"] = delta(
        counters, MEASURED_PHASES, "server.backpressure_events")

    m["engine.latency_p50_ms"] = quantile(engine, 0.5)
    m["engine.latency_p99_ms"] = quantile(engine, 0.99)
    m["engine.coalesce_wait_ms"] = ratio(
        delta(counters, "latency", "engine.coalesce_sum_ms"),
        delta(counters, "latency", "engine.coalesce_count"))
    m["engine.batch_occupancy"] = ratio(
        delta(counters, "saturation", "engine.occupancy_sum"),
        delta(counters, "saturation", "engine.occupancy_count"))
    dispatches = (delta(counters, "saturation", "engine.batches_run")
                  + delta(counters, "saturation", "engine.single_runs"))
    traversed = (delta(counters, "saturation", "engine.queries_admitted")
                 - delta(counters, "saturation", "engine.sketch_hits"))
    m["engine.queries_per_dispatch"] = ratio(traversed, dispatches)
    m["engine.single_run_frac"] = ratio(
        delta(counters, "saturation", "engine.single_runs"), dispatches)

    bfs = counters["traced"]["bfs"]
    for name in ("mspbfs_w64", "mspbfs_w256", "smspbfs_bit"):
        m["bfs.%s_ms" % name] = statistics.median(bfs[name + "_ms"])
    per_source = bfs["batch_sources"]
    m["bfs.edges_scanned_per_source"] = bfs["edges_scanned"][0] / per_source
    m["bfs.states_updated_per_source"] = bfs["states_updated"][0] / per_source
    m["bfs.bottom_up_level_frac"] = ratio(bfs["bottom_up_levels"][0], bfs["levels"][0])
    # One uint16 level per vertex per source in the engine's batch buffer.
    m["bfs.level_bytes_per_source"] = 2.0 * counters["num_vertices"]

    m["graph.build_s"] = statistics.median(counters["graph_build_s"])
    publish = counters["traced"]["publish_ms"]
    m["graph.publish_p50_ms"] = quantile(publish, 0.5) if publish else 0.0
    busy_ms = wall_ms(counters, MEASURED_PHASES)
    compactions = delta(counters, MEASURED_PHASES, "compactor.compactions")
    compact_ms = delta(counters, MEASURED_PHASES, "compactor.total_ms")
    m["graph.compactions"] = compactions
    if compactions:
        m["graph.compaction_ms"] = compact_ms / compactions
    else:  # static workloads: the compactions folding the publish probe
        m["graph.compaction_ms"] = ratio(counters["traced"]["probe_compaction_ms"],
                                         counters["traced"]["probe_compactions"])
    m["graph.compaction_busy_frac"] = ratio(compact_ms, busy_ms)

    hits = delta(counters, MEASURED_PHASES, "engine.sketch_hits")
    stale = delta(counters, MEASURED_PHASES, "engine.sketch_stale")
    consulted = hits + stale + delta(counters, MEASURED_PHASES, "engine.sketch_fallbacks")
    m["sketch.hit_frac"] = ratio(hits, consulted)
    m["sketch.stale_frac"] = ratio(stale, consulted)
    m["sketch.rebuild_busy_frac"] = ratio(
        delta(counters, MEASURED_PHASES, "sketch.total_build_ms"), busy_ms)
    # With sketches off, a standalone BuildSketch stands in.
    m["sketch.build_ms"] = (counters["sketch_build_ms"]
                            or counters["traced"]["standalone_sketch_build_ms"])
    m["sketch.bytes"] = counters["sketch_bytes"]
    resolve = counters["traced"]["resolve_ns"]
    m["sketch.resolve_ns"] = statistics.median(resolve) if resolve else 0.0

    local = delta(counters, "saturation", "sched.local_tasks")
    stolen = delta(counters, "saturation", "sched.stolen_tasks")
    m["sched.steal_frac"] = ratio(stolen, local + stolen)
    m["sched.tasks_per_query"] = ratio(
        local + stolen, delta(counters, "saturation", "engine.queries_completed"))

    _, lag = open_loop_timing(lat_rows + overload)
    m["gen.lag_p99_ms"] = quantile(lag, 0.99)
    m["trace.overhead_frac"] = 1.0 - ratio(
        closed_loop_qps(counters, rows, "saturation_traced"),
        closed_loop_qps(counters, rows, "saturation"))
    return m


def counts_repeat(counters):
    """Names of deterministic bfs counts that differed between the two
    identical passes of the traced run (empty when all repeat)."""
    bfs = counters["traced"]["bfs"]
    return [k for k in ("edges_scanned", "states_updated", "bottom_up_levels", "levels")
            if bfs[k][0] != bfs[k][1]]


def check_result(result, bench, trace):
    """Problems with a result line against BENCHMARK.json's contract
    (empty when it conforms)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys are %s" % sorted(result))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(result["metrics"]) != set(units):
        missing = sorted(set(units) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(units))
        problems.append("metrics missing %s, extra %s" % (missing, extra))
    for name, entry in result["metrics"].items():
        if set(entry) != {"value", "unit"}:
            problems.append("%s: keys %s" % (name, sorted(entry)))
            continue
        value = entry["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append("%s: value %r is not a finite number" % (name, value))
        if name in units and entry["unit"] != units[name]:
            problems.append("%s: unit %s, want %s" % (name, entry["unit"], units[name]))
    return problems
