"""Run the benchmark several times and keep a summary, or compare two summaries.

    python3 scripts/bench.py --label head [--runs 5] [--root DIR]
    python3 scripts/bench.py --compare BENCH_a.json BENCH_b.json

The first form runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` as a subprocess ``--runs`` times for each workload that
``BENCHMARK.json`` lists, T its ``run_seconds``, the workloads taking turns
within a round and round i using seed i, then one ``--trace 1`` run of each
at seed 1.  It measures the checkout at ``--root`` (default: the one holding
this script) and writes ``BENCH_<label>.json`` to the root of the checkout
holding this script, with:

* for each workload, the median, quartiles, run count and values of each
  end-to-end metric, the operations attempted and failed over all runs, and
  the per-layer metrics of the traced run (their counts repeat exactly);
* the machine, ``git rev-parse HEAD`` of the root, whether ``src/`` differs
  from it, and a sha1 over ``src/fdrlos/*.py``;
* where the checkout has a frontier table (``ROWS`` of
  ``tests/test_frontier.py``), ``frontier``: each row's name, whether it
  answers or refuses (AccuracyError; any other exception is recorded by its
  type), whether that meets the row's want (by the table's ``judge``; null
  for a table without one), and its seconds, from one call in a fresh
  interpreter on that checkout's ``src/`` after the runs; then
  ``frontier_met``, the rows that meet their want, and ``frontier_answers``,
  the rows that answer, each of ``len(frontier)``.  A row added as a known
  gap raises the first and leaves the second.

HEAD does not name an uncommitted change, so the sha1 labels the source
tree: it is taken before the first run and after every run, and the script
stops, writing nothing, if it changes.  It also stops on a run that exits
non-zero.

``--compare`` prints, per workload, each end-to-end metric's median in A and
in B, the change as a share of A's median in the direction BENCHMARK.json
calls worse, and a verdict against that metric's bound: ``worse`` past the
bound, ``unresolved`` where either side's quartile spread (as a share of its
median) exceeds the bound and not every run of B beats every run of A,
else ``ok``.  Per-layer counts that differ follow, then both frontier
counts, taken from the rows (a file from before ``frontier_met`` reads "no
record" for it), and the rows whose status differs, or that only one side
has.  It reads BENCHMARK.json and both files, writes nothing, and exits 1
if any metric is worse.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

#: evaluates the frontier rows of the checkout at argv[1]; prints them as JSON
FRONTIER_PROBE = """
import json, sys, time, warnings
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/tests"]
warnings.simplefilter("error")
import test_frontier
from fdrlos.specfun import AccuracyError


def status_only(row):
    # a table from before ``judge``: no want is judged
    try:
        row.call()
    except AccuracyError:
        return "refuses", None
    return "answers", None


judge = getattr(test_frontier, "judge", status_only)
out = []
for row in test_frontier.ROWS:
    start = time.perf_counter()
    try:
        status, met = judge(row)
    except Exception as exc:
        status, met = "raises " + type(exc).__name__, False
    out.append({"name": row.name, "status": status, "met": met,
                "s": time.perf_counter() - start})
print(json.dumps(out))
"""


def src_sha1(root):
    h = hashlib.sha1()
    for path in sorted((root / "src" / "fdrlos").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git(root, *argv):
    try:
        proc = subprocess.run(["git", *argv], cwd=root, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(root, workload, seed, seconds, trace):
    """One ``perfbench/run.py`` run: its result line and its machine record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    machine = next(json.loads(ln.split(":", 1)[1]) for ln in lines if ln.startswith("machine:"))
    return json.loads(lines[-1]), machine


def frontier(root):
    """The frontier rows of the checkout at ``root``, or None where it has no table."""
    if not (root / "tests" / "test_frontier.py").exists():
        return None
    proc = subprocess.run([sys.executable, "-c", FRONTIER_PROBE, str(root)], cwd=root,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"the frontier probe exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def frontier_counts(rows):
    """``frontier_met`` and ``frontier_answers`` of the frontier ``rows``;
    ``frontier_met`` is None where a row records no ``met``, as rows from a
    table without ``judge`` do not."""
    return {"frontier_met": (sum(r["met"] for r in rows)
                             if all(r.get("met") is not None for r in rows) else None),
            "frontier_answers": sum(r["status"] == "answers" for r in rows)}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def measure(args):
    root = Path(args.root).resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = range(1, args.runs + 1)
    sha = src_sha1(root)

    def checked(run, *run_args):
        out = run(root, *run_args)
        if src_sha1(root) != sha:
            sys.exit(f"src/fdrlos changed during the runs (sha1 {sha} at the start); "
                     "nothing written")
        return out

    runs = {w: [] for w in names}
    for seed in seeds:
        for w in names:
            runs[w].append(checked(run_once, w, seed, seconds, 0))
            print(f"{w} seed {seed}: "
                  f"wall_s {runs[w][-1][0]['metrics']['wall_s']['value']:.4g}", flush=True)
    workloads = {}
    for w in names:
        results = [r for r, _ in runs[w]]
        traced, _ = checked(run_once, w, seeds[0], seconds, 1)
        workloads[w] = {
            "end_to_end": {m["name"]: {"unit": m["unit"], **summary(
                [r["metrics"][m["name"]]["value"] for r in results])}
                for m in spec["end_to_end"]},
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    rows = checked(frontier)
    machine = runs[names[0]][0][1]
    record = {
        "label": args.label,
        "head": git(root, "rev-parse", "HEAD"),
        "src_differs_from_head": bool(git(root, "status", "--porcelain", "--", "src")),
        "src_sha1": sha,
        "machine": {k: machine.get(k) for k in ("nproc", "cpu", "python", "numpy", "scipy")},
        "seconds": seconds,
        "seeds": list(seeds),
        "workloads": workloads,
    }
    if rows is not None:
        record.update(frontier=rows, **frontier_counts(rows))
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


def verdict(a, b, better, bound):
    """(share worse, verdict) of B against A for one end-to-end metric."""
    sign = 1.0 if better == "lower" else -1.0
    worse = (b["median"] - a["median"] if sign > 0 else a["median"] - b["median"]) / (
        abs(a["median"]) or 1.0)
    spread = max((s["q3"] - s["q1"]) / (abs(s["median"]) or 1.0) for s in (a, b))
    b_beats_all = all(sign * (vb - va) < 0 for vb in b["values"] for va in a["values"])
    if worse > bound:
        return worse, "worse"
    if spread > bound and not b_beats_all:
        return worse, "unresolved"
    return worse, "ok"


def compare(path_a, path_b):
    spec = json.loads((HERE / "BENCHMARK.json").read_text())
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    print(f"A {path_a}: {a['label']}, src {a['src_sha1'][:12]}\n"
          f"B {path_b}: {b['label']}, src {b['src_sha1'][:12]}")
    any_worse = False
    for w in (w for w in a["workloads"] if w in b["workloads"]):
        wa, wb = a["workloads"][w], b["workloads"][w]
        print(f"\n{w}")
        for m in spec["end_to_end"]:
            ma, mb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            worse, v = verdict(ma, mb, m["better"], m["bound"])
            any_worse |= v == "worse"
            print(f"  {m['name']:<15} {ma['median']:>10.4g} -> {mb['median']:<10.4g} "
                  f"{m['unit']:<6} worse by {worse:+7.1%} (bound {m['bound']:.0%}): {v}")
        counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
        moved = [k for k in sorted(counts) if wa["per_layer"].get(k) != wb["per_layer"].get(k)]
        for k in moved:
            print(f"  count {k}: {wa['per_layer'].get(k)} -> {wb['per_layer'].get(k)}")
    fa, fb = ({r["name"]: r["status"] for r in x.get("frontier", ())} for x in (a, b))
    if fa or fb:
        print()
        for key in ("frontier_met", "frontier_answers"):
            sides = []
            for rows in (x.get("frontier", []) for x in (a, b)):
                got = frontier_counts(rows)[key]
                sides.append("no record" if not rows or got is None else f"{got} of {len(rows)}")
            print(key, " -> ".join(sides))
        for name in [*fa, *(n for n in fb if n not in fa)]:
            if fa.get(name) != fb.get(name):
                print(f"  {name}: {fa.get(name, 'no row')} -> {fb.get(name, 'no row')}")
    return 1 if any_worse else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", help="writes BENCH_<label>.json")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--root", default=str(HERE), help="the checkout to measure")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.label or args.runs < 2:
        ap.error("--label and --runs >= 2 are required to measure")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
