"""Pure helpers of perfbench/run.py: percentile rules, the serve
ladder's capacity rule, metric-name checks, and the mapping from the
harness's raw measurements to the benchmark's metrics.

Kept free of I/O so perfbench/test_benchlib.py can test them directly.
"""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# A percentile is reported only when at least this many samples lie
# beyond it.
MIN_BEYOND = 10

# The serve ladder's limits: the repository's existing SLO budget on
# status p99, at most 1% failed requests, and the generator keeping up.
LADDER_P99_MS = 100.0
LADDER_MAX_ERROR_RATE = 0.01
LADDER_MIN_ACHIEVED = 0.95


def valid_metric_name(name):
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


def samples_beyond(n, q):
    """Samples strictly above the q-quantile of n samples (nearest rank)."""
    return n - math.ceil(q * n)


def highest_supported_percentile(n, candidates=(0.999, 0.99, 0.95, 0.9, 0.5)):
    """The highest of `candidates` with >= MIN_BEYOND samples beyond it, or
    None when even the lowest is unsupported."""
    for q in sorted(candidates, reverse=True):
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def percentile(samples, q):
    """Nearest-rank q-quantile of a non-empty sample list."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def step_passes(step):
    """One ladder step meets the limits: status p99, error rate (errors
    plus timeouts over sent; expected rejections are answers), and achieved
    over offered rate."""
    sent = step["sent"]
    failed = step["errors"] + step["timeouts"]
    error_rate = failed / sent if sent else 1.0
    achieved = step["achieved_qps"] / step["offered_qps"] if step["offered_qps"] else 0.0
    return (step["status"]["p99_ms"] <= LADDER_P99_MS
            and error_rate <= LADDER_MAX_ERROR_RATE
            and achieved >= LADDER_MIN_ACHIEVED)


def ladder_max_qps(steps):
    """The highest ladder rate whose step passes, and every lower step
    too; 0 when the lowest step fails."""
    best = 0.0
    for step in sorted(steps, key=lambda s: s["qps"]):
        if not step_passes(step):
            break
        best = step["qps"]
    return best


def _median(values):
    return statistics.median(values) if values else 0.0


def search_metrics(raw):
    """End-to-end metrics and their detail for the search workload."""
    ops = raw["op_ms"]
    e2e = {
        "setup_s": _median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "op_p50_ms": _median(ops),
        # One client in a closed loop: searches per second at the median
        # search time.
        "throughput_per_s": 1000.0 / _median(ops),
    }
    # Too few searches in a run for any percentile above the median to be
    # supported: the detail gives the slowest search instead.
    detail = {
        "search_s": {"value": _median(ops) / 1000.0, "samples": len(ops)},
        "search_max_s": max(ops) / 1000.0,
    }
    return e2e, detail


def serve_metrics(raw):
    """End-to-end metrics and their detail for the serve workload. The
    first step is the main latency step; in a traced run the rest complete
    the ladder."""
    main = raw["steps"][0]
    status = main["status"]
    fetch = main["fetch_model"]
    status_n = status["ok"] + status["rejected"]
    fetch_n = fetch["ok"] + fetch["rejected"]
    e2e = {
        "setup_s": _median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "op_p50_ms": status["p50_ms"],
        "throughput_per_s": main["achieved_qps"],
    }
    # loadgen reports these quantiles; the tail is the highest one the
    # sample supports.
    quantiles = {0.99: "p99_ms", 0.95: "p95_ms", 0.5: "p50_ms"}
    tail = highest_supported_percentile(status_n, quantiles) or 0.5
    detail = {
        "status_p50_ms": {"value": status["p50_ms"], "samples": status_n},
        "status_tail_ms": {"q": tail, "value": status[quantiles[tail]],
                           "samples": status_n},
        "status_p99_ms": {"value": status["p99_ms"], "samples": status_n,
                          "supported": samples_beyond(status_n, 0.99) >= MIN_BEYOND},
        "fetch_model_p50_ms": {"value": fetch["p50_ms"], "samples": fetch_n},
        "fetch_model_p95_ms": {"value": fetch["p95_ms"], "samples": fetch_n,
                               "supported": samples_beyond(fetch_n, 0.95) >= MIN_BEYOND},
        "main_qps": main["qps"],
        "ladder": [{"qps": s["qps"], "passes": step_passes(s),
                    "status_p99_ms": s["status"]["p99_ms"],
                    "achieved_over_offered": s["achieved_qps"] / s["offered_qps"],
                    "errors": s["errors"], "timeouts": s["timeouts"]}
                   for s in raw["steps"]],
    }
    return e2e, detail


def fleet_metrics(raw):
    """End-to-end metrics and their detail for the fleet-jobs workload."""
    done = [j for j in raw["jobs"] if j["done"]]
    turnaround = [j["turnaround_ms"] for j in done] or [0.0]
    fetch_model = [j["fetch_model_ms"] for j in done] or [0.0]
    n = len(done)
    tail_q = 0.9
    e2e = {
        "setup_s": _median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "op_p50_ms": percentile(turnaround, 0.5),
        "throughput_per_s": n / raw["timed_wall_s"],
    }
    tail = highest_supported_percentile(n) or 0.5
    detail = {
        "job_turnaround_p50_s": {"value": e2e["op_p50_ms"] / 1000.0, "samples": n},
        "job_turnaround_p90_s": {"value": percentile(turnaround, tail_q) / 1000.0,
                                 "samples": n,
                                 "supported": samples_beyond(n, tail_q) >= MIN_BEYOND},
        "job_turnaround_tail_s": {"q": tail, "value": percentile(turnaround, tail) / 1000.0,
                                  "samples": n},
        "jobs_per_s": e2e["throughput_per_s"],
        "job_fetch_model_p50_ms": {"value": percentile(fetch_model, 0.5), "samples": n},
        "poll_interval_ms": raw["poll_interval_ms"],
    }
    return e2e, detail


def operations(workload, raw):
    """(attempted, failed) operations of a run. Every output check is one
    operation; serve adds the main step's requests, failed when they end in
    an error or a timeout (expected rejections are answers). The ladder's
    other steps probe capacity, so their failures are the measurement, not
    failed operations."""
    checks = raw["checks"]
    attempted, failed = checks["attempted"], checks["failed"]
    if workload == "serve":
        main = raw["steps"][0]
        attempted += main["sent"]
        failed += main["errors"] + main["timeouts"]
    return attempted, failed


E2E = {"search": search_metrics, "serve": serve_metrics, "fleet-jobs": fleet_metrics}


def _counter_delta(before, after, name):
    def get(snapshot):
        return snapshot.get("counters", {}).get(name, 0)
    return get(after) - get(before)


def serve_layers(raw):
    """Per-layer metrics of a traced serve run."""
    layers = dict(raw["layers"])
    before = layers.pop("server_metrics_before", {})
    after = layers.pop("server_metrics_after", {})
    main = raw["steps"][0]
    wall = main["wall_s"]
    fetch_count = main["fetch_model"]["ok"]
    layers["server.status_wait_ms"] = main["status"]["p50_ms"] - layers["server.status_rtt_idle_ms"]
    # Computed, not traced: the share of the loop thread that verified
    # fetches would occupy if each cost one in-process FetchBlob.
    layers["server.loop_busy_share_est"] = fetch_count * layers["artifact.fetch_blob_ms"] / 1000.0 / wall
    layers["server.fetch_model_p50_ms"] = main["fetch_model"]["p50_ms"]
    layers["loadgen.status_p99_ms"] = main["status"]["p99_ms"]
    for name in ("server.model_streams", "server.backpressure_stalls",
                 "server.model_bytes_sent"):
        layers[name] = _counter_delta(before, after, name)
    layers["loadgen.achieved_over_offered"] = main["achieved_qps"] / main["offered_qps"]
    layers["loadgen.serve_max_qps"] = ladder_max_qps(raw["steps"])
    layers["loadgen.overrun_s"] = wall - main["horizon_s"]
    return layers


def fleet_layers(raw):
    """Per-layer metrics of a traced fleet-jobs run."""
    layers = dict(raw["layers"])
    workers = layers.pop("worker_metrics", [])
    done = [j for j in raw["jobs"] if j["done"]]
    fresh = [j for j in done if not j["repeat"]]
    repeats = [j for j in done if j["repeat"]]

    def med(key, jobs):
        return _median([j[key] for j in jobs])

    layers["fleet.turnaround_p90_ms"] = percentile([j["turnaround_ms"] for j in done] or [0.0], 0.9)
    layers["fleet.submit_ms"] = med("submit_ms", done)
    layers["fleet.queue_wait_ms"] = med("queue_wait_ms", done)
    layers["fleet.run_ms"] = med("run_ms", fresh)
    layers["fleet.service_overhead_ms"] = layers["fleet.run_ms"] - layers["core.run_search_ms"]
    layers["server.fetch_outcome_ms"] = med("fetch_outcome_ms", done)
    layers["server.fetch_model_ms"] = med("fetch_model_ms", done)
    shared_hits = sum(w.get("counters", {}).get("store.shared_hits", 0) for w in workers)
    # A repeat is served by the shared index instead of re-executing its
    # original's charged strategy executions.
    original = {j["spec_seed"]: j["executions"] for j in fresh}
    avoided = sum(original.get(j["spec_seed"], 0) for j in repeats)
    layers["store.warm_hit_ratio"] = shared_hits / avoided if avoided else 0.0
    # Real compressor runs per job (a served repeat still reports its
    # original's charged count in JobInfo, by the identity contract).
    executed = sum(w.get("counters", {}).get("search.strategy_executions", 0)
                   for w in workers)
    layers["search.strategy_executions"] = executed / len(done) if done else 0.0
    return layers


LAYERS = {"search": lambda raw: dict(raw["layers"]), "serve": serve_layers,
          "fleet-jobs": fleet_layers}
