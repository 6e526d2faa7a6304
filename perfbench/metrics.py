"""Turns runner reports into the benchmark's metrics.

A runner report is the JSON line `perfbench` prints for one workload run.
`end_to_end` reads untraced reports; `per_layer` reads a traced report
beside an untraced one of the same seed. Every metric is printed on every
workload: a layer that does no work in a workload reads 0 there.
"""

import math
import os
import statistics

CLK_TCK = os.sysconf("SC_CLK_TCK")

# Span names the runner records (perfbench/src).
EVAL_SPANS = ("core.evaluate", "core.evaluate_batch")
JOB_PHASES = (
    ("client.submit_ack_share", "submit_ns", "ack_ns"),
    ("server.ack_to_first_result_share", "ack_ns", "first_ns"),
    ("server.stream_share", "first_ns", "last_ns"),
    ("server.done_tail_share", "last_ns", "done_ns"),
)


# ---------------------------------------------------------------- helpers


def percentile(values, q, min_beyond=10):
    """Nearest-rank percentile `q` (0..100) of `values`.

    Returns `{"value", "n", "beyond"}`: the sample count and how many
    samples lie above the chosen rank. The value is `None` when fewer
    than `min_beyond` samples lie beyond it, so no percentile is
    reported from a tail too thin to hold it.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return {"value": None, "n": 0, "beyond": 0}
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    value = xs[rank - 1] if beyond >= min_beyond else None
    return {"value": value, "n": n, "beyond": beyond}


def failure_share(attempted, failed):
    """Share of attempted operations that failed; checks the counts."""
    if not (isinstance(attempted, int) and isinstance(failed, int)):
        raise ValueError("attempted and failed must be whole numbers")
    if attempted < 1 or failed < 0 or failed > attempted:
        raise ValueError(f"bad counts: attempted={attempted} failed={failed}")
    return failed / attempted


def result_line(correct, attempted, failed, metrics, spec):
    """The benchmark's final JSON object.

    `metrics` maps names to values; `spec` is the metric list from
    BENCHMARK.json (`end_to_end` or `per_layer`), which fixes the names
    and units. A missing, extra or non-finite metric is an error.
    """
    failure_share(attempted, failed)
    names = [m["name"] for m in spec]
    if sorted(names) != sorted(metrics):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise ValueError(f"metric set mismatch: missing {missing}, extra {extra}")
    out = {}
    for m in spec:
        value = metrics[m["name"]]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"{m['name']}: not a finite number: {value!r}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }


def ratio(num, den):
    return num / den if den else 0.0


def self_times(spans):
    """Self time per span id: duration minus the union of its children."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    out = {}
    for s in spans:
        covered, cur_start, cur_end = 0, None, None
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, s["start_ns"]), min(b, s["end_ns"])
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s["id"]] = (s["end_ns"] - s["start_ns"]) - covered
    return out


def self_time_by_name(spans):
    """Total self seconds per span name."""
    st = self_times(spans)
    out = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + st[s["id"]] / 1e9
    return out


# ------------------------------------------------------- report accessors


def completed_jobs(report):
    return [j for j in report.get("jobs", []) if j["done_ns"] is not None]


def measured_wall_s(report):
    """Wall time of the measured work: the search phases, or the serve
    window from the first submit to the last `job_done`."""
    if report["workload"] == "serve":
        jobs = completed_jobs(report)
        if not jobs:
            return 0.0
        return (max(j["done_ns"] for j in jobs) - min(j["submit_ns"] for j in jobs)) / 1e9
    return sum(p["wall_s"] for p in report["phases"])


def candidates(report):
    if report["workload"] == "serve":
        return sum(j["search_iters"] for j in completed_jobs(report))
    return sum(p["records"] for p in report["phases"])


def window_proc(report):
    """Process counters of the working process over the measured work."""
    if report["workload"] == "serve":
        return report.get("daemon_proc", {})
    keys = ("minflt", "majflt", "utime_ticks", "stime_ticks")
    return {k: sum(p["proc"][k] for p in report["phases"]) for k in keys}


def window_cache(report):
    if report["workload"] == "serve":
        s = report.get("stats", {})
        return s.get("cache_hits", 0), s.get("cache_misses", 0)
    return (
        sum(p["cache_hits"] for p in report["phases"]),
        sum(p["cache_misses"] for p in report["phases"]),
    )


def job_latencies_ms(report, start="submit_ns", end="done_ns"):
    return [(j[end] - j[start]) / 1e6 for j in completed_jobs(report)]


# ------------------------------------------------------------ end to end


def end_to_end(report, setup_reports):
    """The end-to-end metrics of one untraced run; `setup_reports` are the
    extra set-up-only runs whose set-up times join the median."""
    setups = [r["setup_s"] for r in setup_reports] + [report["setup_s"]]
    return {
        "setup_s": statistics.median(setups),
        "candidates_per_s": ratio(candidates(report), measured_wall_s(report)),
    }


# -------------------------------------------------------------- per layer


def phase(report, name):
    for p in report["phases"]:
        if p["name"] == name:
            return p
    return None


def phase_layers(report, name):
    """Layer split of one in-process search phase of a traced report."""
    p = phase(report, name)
    if p is None or not p.get("wall_s"):
        return None
    spans = report.get("spans", [])
    eval_s = sum(
        (s["end_ns"] - s["start_ns"]) / 1e9
        for s in spans
        if s["parent"] == p["span"] and s["name"] in EVAL_SPANS
    )
    reg = p.get("registry", {})
    sample_s = reg.get("controller_sample_ns", 0) / 1e9
    update_s = reg.get("controller_update_ns", 0) / 1e9
    gp_s = reg.get("gp_predict_batch_ns", 0) / 1e9
    wall = p["wall_s"]
    ticks = p["proc"]["utime_ticks"] + p["proc"]["stime_ticks"]
    hypernet = report["workload"] == "paper_search"
    return {
        "evaluate": eval_s / wall,
        "hypernet_score": (eval_s - gp_s) / wall if hypernet else 0.0,
        "gp_predict": gp_s / wall,
        "controller_sample": sample_s / wall,
        "controller_update": update_s / wall,
        "attributed": (eval_s + sample_s + update_s) / wall,
        "pool_utilization": ratio(reg.get("pool_busy_ns", 0), reg.get("pool_thread_ns", 0)),
        "minor_faults_per_candidate": ratio(p["proc"]["minflt"], p["records"]),
        "sys_cpu_share": ratio(p["proc"]["stime_ticks"], ticks),
    }


def setup_shares(report):
    spans = report.get("spans", [])
    total = sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] == "setup")

    def share(*names):
        return ratio(sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] in names), total)

    return share("hypernet.train"), share("predictor.collect_samples", "predictor.train")


def job_phase_shares(report):
    jobs = [j for j in completed_jobs(report) if j["first_ns"] is not None]
    total = sum(j["done_ns"] - j["submit_ns"] for j in jobs)
    return {name: ratio(sum(j[b] - j[a] for j in jobs), total) for name, a, b in JOB_PHASES}


def per_layer(traced, untraced):
    """The per-layer metrics of a traced run, with its overhead measured
    against an untraced run of the same seed."""
    serve = traced["workload"] == "serve"
    n = candidates(traced)
    rl = phase_layers(traced, "rl") or {}
    rnd = phase_layers(traced, "random") or {}
    if serve:
        job_shares = job_phase_shares(traced)
        attributed = sum(job_shares.values())
    else:
        job_shares = {name: 0.0 for name, _, _ in JOB_PHASES}
        attributed = min((x["attributed"] for x in (rl, rnd) if x), default=0.0)
    m = {"trace.attributed_share": attributed}
    m["trace.overhead_share"] = ratio(measured_wall_s(traced), measured_wall_s(untraced)) - 1.0
    train, fit = setup_shares(traced)
    m["hypernet.train_share_of_setup"] = train
    m["predictor.fit_share_of_setup"] = fit
    for tag, x in (("rl", rl), ("random", rnd)):
        m[f"hypernet.score_share.{tag}"] = x.get("hypernet_score", 0.0)
        m[f"core.evaluate_share.{tag}"] = x.get("evaluate", 0.0)
        m[f"core.unattributed_share.{tag}"] = 1.0 - x["attributed"] if x else 0.0
        m[f"process.minor_faults_per_candidate.{tag}"] = x.get("minor_faults_per_candidate", 0.0)
        m[f"process.sys_cpu_share.{tag}"] = x.get("sys_cpu_share", 0.0)
    m["predictor.gp_predict_share.rl"] = rl.get("gp_predict", 0.0)
    m["controller.sample_share.rl"] = rl.get("controller_sample", 0.0)
    m["controller.update_share.rl"] = rl.get("controller_update", 0.0)
    m["pool.utilization.rl"] = rl.get("pool_utilization", 0.0)

    hits, misses = window_cache(traced)
    m["accel.cache_hit_rate"] = ratio(hits, hits + misses)
    m["accel.cache_misses_per_candidate"] = ratio(misses, n)

    m.update(job_shares)
    jobs = completed_jobs(traced)
    stats = traced.get("stats", {})
    m["server.events_per_job"] = ratio(sum(j["events"] for j in jobs), len(jobs))
    m["server.frame_bytes_per_job"] = ratio(sum(j["frame_bytes"] for j in jobs), len(jobs))
    m["server.journal_fsyncs_per_job"] = ratio(stats.get("journal_fsyncs", 0), len(jobs))
    m["server.shutdown_ack_lost"] = 1 if traced.get("shutdown_ack_lost") else 0

    m["core.best_reward"] = traced["best_reward"]
    proc = window_proc(traced)
    ticks = proc.get("utime_ticks", 0) + proc.get("stime_ticks", 0)
    m["process.cpu_ms_per_candidate"] = ratio(ticks * 1000.0 / CLK_TCK, n)
    m["process.peak_rss_mb"] = traced["peak_rss_kib"] / 1024.0
    m["process.sys_cpu_share"] = ratio(proc.get("stime_ticks", 0), ticks)
    m["process.minor_faults_per_candidate"] = ratio(proc.get("minflt", 0), n)
    cpu = traced["host"]["cpu"]
    m["host.steal_share"] = ratio(cpu["steal_ticks"], cpu["total_ticks"])
    return m


# ------------------------------------------------------------ diagnostics


def diagnostics(report, extra_reports=()):
    """Host and process facts printed beside every run's metrics, so a
    disagreement between run sets can be traced to the host."""
    host = report["host"]
    own = report["self_proc"]
    d = {
        "workload": report["workload"],
        "seed": report["seed"],
        "seconds": report["seconds"],
        "cores": host["cores"],
        "pool_threads": host["pool_threads"],
        "matmul_threads": host["matmul_threads"],
        "simd_tier": host["simd_tier"],
        "steal_share": ratio(host["cpu"]["steal_ticks"], host["cpu"]["total_ticks"]),
        "runner_user_s": own["utime_ticks"] / CLK_TCK,
        "runner_sys_s": own["stime_ticks"] / CLK_TCK,
        "setup_s_samples": [r["setup_s"] for r in extra_reports] + [report["setup_s"]],
        "measured_wall_s": measured_wall_s(report),
        "peak_rss_mb": report["peak_rss_kib"] / 1024.0,
        "candidates": candidates(report),
        "best_reward": report["best_reward"],
    }
    for p in report["phases"]:
        d[f"{p['name']}_candidates_per_s"] = ratio(p["records"], p["wall_s"])
        d[f"{p['name']}_best_reward"] = p.get("best_reward")
    if report["workload"] == "serve":
        daemon = report.get("daemon_proc", {})
        d["daemon_user_s"] = daemon.get("utime_ticks", 0) / CLK_TCK
        d["daemon_sys_s"] = daemon.get("stime_ticks", 0) / CLK_TCK
        d["jobs"] = len(completed_jobs(report))
        d["jobs_per_s"] = ratio(d["jobs"], d["measured_wall_s"])
        d["shutdown_ack_lost"] = report.get("shutdown_ack_lost")
        lat = job_latencies_ms(report)
        first = job_latencies_ms(report, end="first_ns")
        d["job_latency_ms_p50"] = percentile(lat, 50)
        d["job_latency_ms_p90"] = percentile(lat, 90)
        d["first_result_ms_p50"] = percentile(first, 50)
        d["submit_ack_ms_p50"] = percentile(job_latencies_ms(report, end="ack_ns"), 50)
    return d
