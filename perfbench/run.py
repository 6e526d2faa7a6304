#!/usr/bin/env python3
"""Repository benchmark: builds the program from source, runs one workload
and prints its metrics as the last line of standard output.

    python3 perfbench/run.py --workload <paper_search|surrogate_rl|serve>
                             --seed N --seconds S --trace <0|1>

Run it from the repository root. `--trace 0` prints the end-to-end
metrics of BENCHMARK.json, `--trace 1` the per-layer metrics of a traced
run. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import atexit
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
import tomllib
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

ROOT = HERE.parent
WORKLOADS = ("paper_search", "surrogate_rl", "serve")
# Set-ups per untraced run (fresh processes each); set-up time is their median.
SETUPS = {"paper_search": 3, "surrogate_rl": 5, "serve": 21}
# Wall-clock budget for the runs after the build.
RUN_BUDGET_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def toml_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return str(v)
    return json.dumps(str(v))


def profile_overrides():
    """The repository's `[profile.release]` as `--config` flags, so the
    benchmark's own workspace builds the library as the repository does."""
    manifest = tomllib.loads((ROOT / "Cargo.toml").read_text())
    flags = []

    def walk(prefix, table):
        for key, value in table.items():
            if isinstance(value, dict):
                walk(f"{prefix}.{key}", value)
            else:
                flags.extend(["--config", f"{prefix}.{key}={toml_value(value)}"])

    walk("profile.release", manifest.get("profile", {}).get("release", {}))
    return flags


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    steps = [
        ["cargo", "build", "--release", "--manifest-path", str(HERE / "Cargo.toml")]
        + profile_overrides(),
        ["cargo", "build", "--release", "-p", "yoso-server", "--bin", "yoso_serve"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return target_dir / "release"


def run_runner(bin_dir, work_dir, deadline, workload, seed, seconds, trace=False, setup_only=False):
    cmd = [
        str(bin_dir / "perfbench"),
        workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--serve-bin", str(bin_dir / "yoso_serve"),
        "--work-dir", str(work_dir),
    ]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time budget")
    # Its own process group, so a timeout also stops the daemon it spawned.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"runner timed out: {' '.join(cmd)}")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"runner exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def summarize(name, report):
    for e in report["errors"]:
        print(f"perfbench: {name}: {e}", file=sys.stderr)
    return not report["errors"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"no repository sources beside {HERE.name}/; run from a full checkout")
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    bin_dir = build(target_dir)

    work_dir = ROOT / ".perfbench_work"
    scratch = work_dir / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    atexit.register(shutil.rmtree, scratch, ignore_errors=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    run = lambda **kw: run_runner(  # noqa: E731
        bin_dir, scratch, deadline, args.workload, args.seed, args.seconds, **kw
    )

    if args.trace == 0:
        setups = [run(setup_only=True) for _ in range(SETUPS[args.workload] - 1)]
        report = run()
        correct = all([summarize("setup", r) for r in setups] + [summarize("run", report)])
        values = metrics.end_to_end(report, setups)
        diag = metrics.diagnostics(report, setups)
        wanted = spec["end_to_end"]
    else:
        baseline = run()
        report = run(trace=True)
        correct = summarize("untraced", baseline) and summarize("traced", report)
        if report["best_reward"] != baseline["best_reward"]:
            print("perfbench: traced best_reward differs from the untraced run", file=sys.stderr)
            correct = False
        values = metrics.per_layer(report, baseline)
        diag = metrics.diagnostics(report)
        diag["untraced_measured_wall_s"] = metrics.measured_wall_s(baseline)
        diag["self_time_s"] = metrics.self_time_by_name(report.get("spans", []))
        trace_file = work_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"report": report, "diagnostics": diag}) + "\n")
        wanted = spec["per_layer"]

    attempted, failed = report["attempted"], report["failed"]
    if attempted < 1:
        attempted, failed, correct = 1, 1, False
    if failed:
        correct = False
    if not correct:
        # A failed run has no meaningful figures; keep the line printable.
        values = {
            k: v if isinstance(v, (int, float)) and math.isfinite(v) else 0.0
            for k, v in values.items()
        }
    print(json.dumps({"diagnostics": diag}))
    print(json.dumps(metrics.result_line(correct, attempted, failed, values, wanted)))


if __name__ == "__main__":
    main()
