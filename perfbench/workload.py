"""One benchmark process: runs units of one workload through ``fdrlos.cli.main``.

A unit is the workload's fixed list of CLI commands, run in-process and back
to back by one caller (closed loop).  The first unit is a warm-up; after it,
units repeat until the time budget is spent.  With ``--trace 1`` traced and
untraced units alternate.  Every output is checked after
its unit, outside the timed region, and the process writes one JSON result.

    python3 perfbench/workload.py --workload figures --seed 1 --seconds 25 \
        --trace 0 --out .perfbench_out/w --result .perfbench_out/w.json

``run.py`` starts this with ``PYTHONPATH=src``; use that entry point.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import hostspeed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("figures", "mc_validate", "oracle_real_m")
FIGURES = ("fig1", "fig3", "fig4", "fig5")
MAX_ERR = 1e-6          # relative error against a reference that fails an output
DIGITS_CAP = 15.0
MC_SIGMAS = 5.0         # Monte-Carlo estimates must lie this many standard errors in


@dataclass
class Command:
    argv: list
    outputs: list                               # files the command must write
    sizes: dict = field(default_factory=dict)   # samples behind Monte-Carlo outputs


def unit_commands(workload, seed, out, refs, quick):
    """The commands of one unit; the seed fixes every input they get."""
    rng = random.Random(seed)
    if workload == "figures":
        # The presets pin their own Monte-Carlo seeds; the run seed sets the
        # order of the four commands.
        mc = 1000 if quick else 10000
        order = list(FIGURES)
        rng.shuffle(order)
        cmds = []
        for fig in order:
            files = sorted(f for f in refs if f.startswith(fig + "_"))
            sizes = {f: mc * refs[f].get("samples_factor", 0) for f in files}
            cmds.append(Command(["figure", fig, "--output-dir", str(out),
                                 "--mc-samples", str(mc)], files, sizes))
        return cmds
    if workload == "mc_validate":
        n = 1 << 17 if quick else 1 << 22
        return [
            Command(["sim", "--k", "5", "--m", "3", "--gamma-bar", "2",
                     "--samples", str(n), "--threads", "2", "--seed", str(seed),
                     "--output", str(out / "mcv_sim.txt")],
                    ["mcv_sim.txt"], {"mcv_sim.txt": n}),
            Command(["cdf", "--k", "5", "--m", "3", "--gamma-bar", "2",
                     "--grid", "0.01:20:16:log", "--output", str(out / "mcv_cdf_k5_m3.csv")],
                    ["mcv_cdf_k5_m3.csv"]),
        ]
    if workload == "oracle_real_m":
        base = ["--k", "3", "--m", "2.5", "--gamma-bar", "2", "--oracle"]
        cmds = [
            Command(["cdf"] + base + ["--grid", "0.01:20:2:log" if quick else "0.01:20:16:log",
                                      "--output", str(out / "oracle_cdf_k3_m2.5.csv")],
                    ["oracle_cdf_k3_m2.5.csv"]),
            Command(["pdf"] + base + ["--grid", "0.01:20:401",
                                      "--output", str(out / "oracle_pdf_k3_m2.5.csv")],
                    ["oracle_pdf_k3_m2.5.csv"]),
        ]
        rng.shuffle(cmds)
        return cmds
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks


class Checker:
    """Counts operations and failures; tracks the fewest correct digits."""

    def __init__(self, refs, quick):
        self.refs = refs
        self.quick = quick
        self.attempted = 0
        self.failed = 0
        self.digits = DIGITS_CAP
        self.failures = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def file(self, path, sizes):
        try:
            problem = self._check(path, sizes.get(path.name, 0))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
        self.op(problem is None, f"{path.name}: {problem}")

    def _check(self, path, n):
        if path.name == "mcv_sim.txt":
            return self._check_sim(path, n)
        ref = self.refs[path.name]
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        x, y = data[:, 0], data[:, 1]
        if np.isnan(y).any() or np.isnan(x).any():
            return "NaN in output"
        if ref["quantity"] == "pdf" and (y < 0).any():
            return "negative density"
        if ref["quantity"] in ("cdf", "op") and ((y < 0) | (y > 1)).any():
            return "probability outside [0, 1]"
        if "points" in ref:
            problem = self._check_points(x, y, ref["points"])
            if problem:
                return problem
        if "mc" in ref:
            for xr, p, _ in ref["mc"]:
                i = _row(x, xr)
                if i is None:
                    return f"no row at {xr}"
                if not _within_mc(y[i], float(p), n):
                    return f"Monte-Carlo estimate {y[i]:.6g} vs {float(p):.6g} at {xr} (n={n})"
        if "mass" in ref:
            mass = float(np.sum(y)) * ref["bin_width"]
            if not _within_mc(mass, float(ref["mass"][0]), n):
                return f"histogram mass {mass:.6g} vs {float(ref['mass'][0]):.6g} (n={n})"
        return None

    def _check_points(self, x, y, points):
        matched = 0
        for xr, value, ref_digits in points:
            i = _row(x, xr)
            if i is None:
                if self.quick:
                    continue
                return f"no row at {xr}"
            matched += 1
            ref = float(value)
            err = abs(y[i] - ref) / abs(ref)
            digits = DIGITS_CAP if err == 0 else -np.log10(err)
            self.digits = min(self.digits, digits, float(ref_digits))
            if not err <= MAX_ERR:
                return f"relative error {err:.3g} at {xr} (got {y[i]!r}, ref {value})"
        return None if matched else "no reference abscissa in output"

    def _check_sim(self, path, n):
        kv = dict(line.split("=", 1) for line in path.read_text().split())
        if kv["ks_pass"] != "true":
            return f"KS test failed: {kv['ks_statistic']} >= {kv['ks_threshold']}"
        mean, var, gbar = float(kv["mean"]), float(kv["variance"]), float(kv["gamma_bar"])
        if int(kv["n"]) != n or not np.isfinite([mean, var]).all():
            return "bad sim summary"
        se = (var / n) ** 0.5
        if abs(mean - gbar) > MC_SIGMAS * se:
            return f"mean {mean} is {abs(mean - gbar) / se:.1f} standard errors from {gbar}"
        return None


def _row(x, xr):
    i = int(np.argmin(np.abs(x - xr)))
    return i if abs(x[i] - xr) <= 1e-12 * max(abs(xr), 1.0) else None


def _within_mc(estimate, p, n):
    """Binomial estimate of p from n draws, within MC_SIGMAS standard errors
    plus one count."""
    return abs(estimate - p) <= MC_SIGMAS * (p * (1 - p) / n) ** 0.5 + 1.0 / n


# ---------------------------------------------------------------------------
# the loop


def import_fdrlos():
    """Import the package from this checkout's src/ and nowhere else."""
    import fdrlos.cli as cli
    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"fdrlos imported from {cli.__file__}, not from {src}")
    from fdrlos import analytic, empirics, models, specfun
    modules = {"cli": cli, "analytic": analytic, "specfun": specfun,
               "models": models, "empirics": empirics}
    return modules


def run_unit(cli, commands, out, checker):
    for cmd in commands:
        for name in cmd.outputs:
            (out / name).unlink(missing_ok=True)
    t0 = time.perf_counter()
    results = []
    for cmd in commands:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(cmd.argv)
            results.append((rc, sink.getvalue()))
        except (Exception, SystemExit):  # a failed command is counted, not fatal
            results.append((None, traceback.format_exc(limit=3)))
    wall = time.perf_counter() - t0
    for cmd, (rc, text) in zip(commands, results):
        checker.op(rc == 0, f"{' '.join(cmd.argv[:2])}: exit {rc}: {text[-300:]}")
        for name in cmd.outputs:
            checker.file(out / name, cmd.sizes)
    return wall


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-units", type=int, default=2,
                    help="timed units (traced: pairs of units) at least")
    ap.add_argument("--quick", action="store_true", help="reduced sizes for the self-check")
    ap.add_argument("--out", required=True, help="directory for the commands' outputs")
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="write the traced spans here")
    args = ap.parse_args(argv)

    modules = import_fdrlos()
    refs = json.loads((HERE / "refs.json").read_text())["files"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    commands = unit_commands(args.workload, args.seed, out, refs, args.quick)
    checker = Checker(refs, args.quick)

    cli = modules["cli"]
    tracer = tracing.Tracer() if args.trace else None
    walls = {True: [], False: []}       # traced / untraced unit times
    chunks = {True: [], False: []}      # host-speed probe around each unit
    bytes_written = []
    probe_s = 0.05

    def one_unit(traced):
        """Wall time of one unit and the host-speed chunk time around it."""
        nonlocal probe_s
        before = hostspeed.chunk_time(probe_s)
        if traced:
            tracer.unit()
            saved = tracing.install(tracer, modules)
        try:
            wall = run_unit(cli, commands, out, checker)
        finally:
            if traced:
                tracing.uninstall(saved)
                bytes_written.append(sum((out / f).stat().st_size for c in commands
                                         for f in c.outputs if (out / f).exists()))
        probe_s = hostspeed.SHARE * wall
        return wall, (before + hostspeed.chunk_time(probe_s)) / 2

    # A traced process alternates traced and untraced units, taking turns at
    # going first, so that the tracing overhead compares units that saw the
    # same host.  Round 0 is the warm-up: checked but not timed.
    rounds = 0
    t_start = None
    while True:
        kinds = (False,) if not tracer else (True, False) if rounds % 2 == 0 else (False, True)
        for traced in kinds:
            wall, chunk = one_unit(traced)
            if rounds:
                walls[traced].append(wall)
                chunks[traced].append(chunk)
        rounds += 1
        if rounds == 1:
            t_start = time.perf_counter()
            continue
        if rounds - 1 >= args.min_units and time.perf_counter() - t_start >= args.seconds:
            break

    result = {"walls": walls[bool(tracer)], "chunks": chunks[bool(tracer)],
              "attempted": checker.attempted,
              "failed": checker.failed, "correct_digits": checker.digits,
              "failures": checker.failures,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "versions": {"numpy": np.__version__, "scipy": scipy.__version__}}
    if tracer:
        units = len(tracer.units)
        layer = tracing.layer_metrics(tracer, range(1, units))
        layer["cli.bytes_written"] = float(np.mean(bytes_written[1:]))
        layer["models.samples_per_s_1t"] = _single_thread_rate(tracer, modules["models"])
        result["layer"] = layer
        result["plain_walls"] = walls[False]
        result["plain_chunks"] = chunks[False]
        result["unit_counts"] = [tracing.unit_counts(tracer, u) for u in range(units)]
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.dump()))
    Path(args.result).write_text(json.dumps(result))
    return 0


def _single_thread_rate(tracer, models, reps=2):
    """Samples per second of the run's largest draw, repeated untraced at
    threads=1."""
    if tracer.largest_draw is None:
        return 0.0
    model, params, n, seed = tracer.largest_draw
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        models.sample_snr(model, params, n, seed, threads=1)
        times.append(time.perf_counter() - t0)
    return n / float(np.median(times))


if __name__ == "__main__":
    sys.exit(main())
