"""Benchmark of fdrlos: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a checkout.  Each workload runs in a fresh interpreter
(``workload.py``) that drives ``fdrlos.cli.main`` in-process, one command at a
time, and checks every output against ``refs.json``.  The last line printed
is the result: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
reports the per-layer metrics from two traced processes, whose
machine-independent counts must agree; in each, traced units alternate with
untraced ones, which give the tracing overhead.
A record with the machine, the versions and every raw sample is written to
``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170         # every child is stopped by then
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import fdrlos.cli; "
                "t = time.perf_counter() - t; sys.path.insert(0, {here!r}); import hostspeed; "
                "hostspeed.chunk_time(0.0); print(t, hostspeed.chunk_time(0.1))")


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, deadline):
    """Run ``python3 argv`` in the checkout; it is killed at the deadline."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc.stdout


def setup_times(n, deadline):
    """Import time of fdrlos.cli in n fresh interpreters, each with the
    host-speed chunk time measured right after it."""
    probe = IMPORT_PROBE.format(here=str(HERE))
    return [tuple(map(float, run_child(["-c", probe], deadline).split()[-2:]))
            for _ in range(n)]


def workload_process(args, tag, seconds, trace, min_units):
    out_dir = OUT / "work" / tag
    result = OUT / "work" / f"{tag}.json"
    argv = [str(HERE / "workload.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", str(trace), "--min-units", str(min_units),
            "--out", str(out_dir), "--result", str(result)]
    if args.quick:
        argv.append("--quick")
    if trace:
        spans = OUT / "spans" / f"{args.workload}-seed{args.seed}-{tag}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        argv += ["--spans", str(spans)]
    run_child(argv, args.deadline)
    data = json.loads(result.read_text())
    shutil.rmtree(out_dir, ignore_errors=True)
    result.unlink()
    return data


def end_to_end(args):
    imports = setup_times(2 if args.quick else 5, args.deadline)
    run = workload_process(args, "e2e", args.seconds, 0, 1 if args.quick else 3)
    metrics = {
        "setup_s": statistics.median(hostspeed.scaled(t, c) for t, c in imports),
        "wall_s": statistics.median(hostspeed.scaled(w, c)
                                    for w, c in zip(run["walls"], run["chunks"])),
        "peak_rss_mb": run["peak_rss_mb"],
        "correct_digits": run["correct_digits"],
        "ok_frac": 1.0 - run["failed"] / run["attempted"],
    }
    raw = {"import_s": [t for t, _ in imports], "import_chunk_s": [c for _, c in imports],
           "unit_wall_s": run["walls"], "unit_chunk_s": run["chunks"],
           "failures": run["failures"]}
    return metrics, [run], raw, True


def per_layer(args):
    traced = workload_process(args, "traced", 0.6 * args.seconds, 1, 1 if args.quick else 2)
    again = workload_process(args, "again", 0.0, 1, 1)
    metrics = dict(traced["layer"])
    wall = statistics.median(traced["walls"])
    metrics["trace.wall_s"] = wall
    # traced and untraced units alternate in one process; compare each pair,
    # both sides at reference host speed
    metrics["trace.overhead_frac"] = statistics.median(
        hostspeed.scaled(t, ct) / hostspeed.scaled(p, cp) for t, ct, p, cp in
        zip(traced["walls"], traced["chunks"], traced["plain_walls"],
            traced["plain_chunks"])) - 1.0
    below_cli = sum(metrics[f"{layer}.self_s"] for layer in
                    ("analytic", "specfun", "models", "empirics")) + metrics["cli.csv_write_s"]
    metrics["trace.coverage_frac"] = below_cli / statistics.mean(traced["walls"])
    # machine-independent counts must repeat: across the units of one process
    # (each unit gets the same inputs) and between the two traced processes
    counts = traced["unit_counts"]
    repeat_ok = all(c == counts[0] for c in counts + again["unit_counts"])
    if not repeat_ok:
        print("count mismatch between traced units:", file=sys.stderr)
        for c in counts + again["unit_counts"]:
            print(json.dumps(c, sort_keys=True), file=sys.stderr)
    raw = {"plain_wall_s": traced["plain_walls"], "plain_chunk_s": traced["plain_chunks"],
           "traced_wall_s": traced["walls"], "traced_chunk_s": traced["chunks"],
           "unit_counts": counts, "failures": traced["failures"] + again["failures"]}
    return metrics, [traced, again], raw, repeat_ok


def machine_record(args, versions):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            **versions, "commit": commit,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "quick": args.quick,
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def measure(args):
    args.deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "fdrlos" / "cli.py").is_file():
        raise BenchError(f"no fdrlos sources under {ROOT / 'src'}")
    metrics, runs, raw, repeat_ok = (per_layer if args.trace else end_to_end)(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in listed}
    if names != set(metrics):
        raise BenchError(f"metrics measured but not listed: {sorted(set(metrics) - names)}; "
                         f"listed but not measured: {sorted(names - set(metrics))}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {
        "correct": failed == 0 and repeat_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    record = {"machine": machine_record(args, runs[0]["versions"]), "result": result, "raw": raw}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1))
    print("machine:", json.dumps(record["machine"]))
    for failure in raw["failures"]:
        print("FAILED", failure, file=sys.stderr)
    return result


def self_check():
    """Each workload once at reduced size, traced and untraced.  ``measure``
    raises unless the metrics measured are exactly those BENCHMARK.json
    lists; here every value must be a finite number and no operation may
    fail."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=w["name"], seed=1, seconds=0.0, trace=trace,
                                      quick=True)
            res = measure(args)
            bad = [k for k, v in res["metrics"].items()
                   if not (isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                           and v["unit"])]
            if bad or not res["correct"] or res["attempted"] < 1:
                problems.append(f"{w['name']} trace={trace}: correct={res['correct']} "
                                f"failed={res['failed']}/{res['attempted']} bad={bad}")
            print(f"{w['name']} trace={trace}: {res['attempted']} operations, "
                  f"{len(res['metrics'])} metrics", flush=True)
    for p in problems:
        print("SELF-CHECK:", p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload once at reduced size and check the metric set")
    args = ap.parse_args(argv)
    args.quick = False
    try:
        if args.self_check:
            return self_check()
        if not args.workload:
            ap.error("--workload is required")
        result = measure(args)
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
