"""Command-line surface: evaluators, samplers and figure-reproduction presets.

All numeric flags are linear unless the flag name ends in ``-db``; dB values
are converted once at this boundary via linear = 10^(dB/10).  Output is CSV
(UTF-8, comma, header row, LF) with 17 significant digits, which round-trips
doubles exactly; ``Curve.write_csv`` writes it to ``--output`` or stdout.

Every law with an m takes every finite m > 0; the route follows m: the
finite Binomial mixture at integer m up to 100, otherwise the 1F1 density
and the negative-binomial series of the Rician shadowed cdf, which refuse m
past 1e15, and the fdrlos cdf as the drlos cdf averaged over the LoS power,
which takes every m.  ``--oracle`` changes only the fdrlos cdf (``cdf``,
``op``, ``sim``): it selects that LoS-power average at every m, a cross-check
that shares no code with the mixture at integer m up to 100, and at other m
the same numbers as the default.  The pdf has one route, flag or not.

Exit codes: 0 success, 2 usage/domain error or an output path that cannot be
written (one ``error:`` line on stderr), 3 numeric or convergence failure.

Sweeps over the mean SNR (``op`` and the fig3/fig4 outage curves) pass their
gamma_bar grid to the law, which checks it and evaluates the one vector cdf
at gamma_th.  Only the Monte-Carlo marker curves use the scale-family identity
F(gamma; K, m, gamma_bar) = F(gamma / gamma_bar; K, m, 1) themselves: one seed
and one draw at gamma_bar = 1, and each marker the fraction of the draw below
gamma_th / gamma_bar.

Figure presets (the plotted m-sets are choices of this artifact, recorded
here; seeds and sample counts are pinned so runs reproduce byte-for-byte):

* fig1  pdf vs snr, K=5, mean snr 2; m in {1,2,3,5,15}; deterministic-LoS
        limit curve (``drlos_pdf_oracle``: the closed form 2 I0 K0 at the
        400 points past 0, one vector call); per-m Monte-Carlo histograms
        (1e7 samples, bin 0.1).
* fig3  outage vs mean snr (dB), K=1, threshold 3 dB; m in {1,3,10};
        high-SNR asymptotes; deterministic-LoS limit (``drlos_cdf_oracle``:
        the closed form in I and K Bessels at each mean snr, one vector call,
        relative accuracy kept out to 60 dB); MC markers.
* fig4  outage vs mean snr (dB), K=6, threshold 3 dB; m in {1,3,5,10};
        fluctuating-LoS double-Rayleigh vs Rician shadowed; MC markers.
* fig5  outage vs K, mean snr 25 dB, threshold 3 dB; m in {1,3,5,10};
        each curve, K=0 included, is one array-K ``fdrlos_cdf`` call.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import analytic, empirics
from .models import FadingParams, ModelKind, sample_snr
from .specfun import AccuracyError, DomainError, check_rel_tol

_MC_SEED = 20260810
_VAR_BLOCK = 1 << 16      # values per pass of ``_variance``: a 512 kB scratch row


def db_to_linear(db):
    """linear = 10^(dB/10) for a number or an array; a value whose linear
    form overflows a double is a DomainError."""
    try:
        with np.errstate(over="raise"):
            return 10.0 ** (db / 10.0)
    except (OverflowError, FloatingPointError):
        raise DomainError(f"{np.max(db):g} dB overflows a double") from None


def _linear(args, name):
    """The linear value of ``--name`` or, converted, of ``--name-db``."""
    db = getattr(args, name + "_db")
    return getattr(args, name) if db is None else db_to_linear(db)


def _parse_grid(text: str) -> np.ndarray:
    """The values of a grid ``min:max:points[:lin|log]``."""
    usage = f"grid must be min:max:points[:lin|log], got {text!r}"
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise DomainError(usage)
    try:
        lo, hi, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError(usage) from None
    spacing = parts[3] if len(parts) == 4 else "lin"
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DomainError("grid bounds must be finite")
    if not (lo < hi):
        raise DomainError("grid min must be below grid max")
    if points < 2:
        raise DomainError("grid needs at least 2 points")
    if spacing not in ("lin", "log"):
        raise DomainError("grid spacing must be lin or log")
    if spacing == "log":
        if lo <= 0:
            raise DomainError("log grid needs a positive minimum")
        return np.geomspace(lo, hi, points)
    return np.linspace(lo, hi, points)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fdrlos",
        description="Fluctuating double-Rayleigh LoS fading: densities, "
                    "distributions, outage and Monte-Carlo simulation.")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p, need_gbar=True):
        p.add_argument("--model", default="fdrlos",
                       help="fdrlos | rician-shadowed | drlos | rician")
        p.add_argument("--k", type=float, required=True, help="LoS power ratio (linear)")
        p.add_argument("--m", type=float, default=1.0, help="LoS fluctuation shape")
        if need_gbar:
            g = p.add_mutually_exclusive_group(required=True)
            g.add_argument("--gamma-bar", type=float, help="mean SNR, linear")
            g.add_argument("--gamma-bar-db", type=float, help="mean SNR, dB")
        p.add_argument("--oracle", action="store_true",
                       help="fdrlos cdf (cdf, op, sim) as the LoS-power average "
                            "at every m; pdf has one route")
        p.add_argument("--rel-tol", type=float, default=1e-10)
        p.add_argument("--output", help="CSV path (default: stdout)")

    for name in ("pdf", "cdf"):
        p = sub.add_parser(name, help=f"evaluate the SNR {name} on a grid")
        common(p)
        p.add_argument("--grid", required=True,
                       help="SNR grid min:max:points[:lin|log] (linear)")

    p = sub.add_parser("op", help="outage probability vs mean SNR")
    common(p, need_gbar=False)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--gamma-th", type=float, help="SNR threshold, linear")
    g.add_argument("--gamma-th-db", type=float, help="SNR threshold, dB")
    gg = p.add_mutually_exclusive_group(required=True)
    gg.add_argument("--grid", help="mean-SNR grid min:max:points[:lin|log], linear")
    gg.add_argument("--grid-db", help="mean-SNR grid min:max:points, in dB")
    p.add_argument("--asymptotic", action="store_true",
                   help="emit the high-SNR asymptote instead of the exact OP")

    p = sub.add_parser("sim", help="Monte-Carlo simulation summary")
    common(p)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--raw-output", help="also dump the raw samples as CSV")

    p = sub.add_parser("figure", help="write the CSV set for a preset figure")
    p.add_argument("name", choices=("fig1", "fig3", "fig4", "fig5"))
    p.add_argument("--output-dir",
                   default=os.environ.get("FDRLOS_OUTPUT_DIR", "figures"))
    p.add_argument("--mc-samples", type=int, default=10 ** 6,
                   help="sample count for the marker files (fig1 uses 10x)")
    return top


def _law(args, model: ModelKind, quantity: str, params: FadingParams):
    """The ``quantity`` ("pdf" or "cdf") of ``model`` at ``params`` as a
    function of an SNR array, on the route ``--oracle`` picks for a cdf."""
    k, m, gbar, rel_tol = params.k, params.m, params.gamma_bar, args.rel_tol
    if model is ModelKind.FDRLOS:
        name = "fdrlos_cdf_oracle" if args.oracle and quantity == "cdf" else f"fdrlos_{quantity}"
        return lambda g: getattr(analytic, name)(g, params, rel_tol=rel_tol)
    if model is ModelKind.RICIAN_SHADOWED:
        return lambda g: getattr(analytic, f"rs_{quantity}")(g, k, m, gbar)
    if model is ModelKind.DRLOS:
        return lambda g: getattr(analytic, f"drlos_{quantity}_oracle")(g, k, gbar)
    return lambda g: getattr(analytic, f"rician_{quantity}")(g, k, gbar)


def cmd_curve(args) -> int:
    """``pdf`` and ``cdf``: the law on an SNR grid."""
    model = ModelKind.parse(args.model)
    params = FadingParams(args.k, args.m, _linear(args, "gamma_bar"))
    grid = _parse_grid(args.grid)
    vals = _law(args, model, args.subcommand, params)(grid)
    analytic.Curve(grid, vals, args.subcommand).write_csv(args.output or sys.stdout)
    return 0


def cmd_op(args) -> int:
    model = ModelKind.parse(args.model)
    gamma_th = _linear(args, "gamma_th")
    in_db = args.grid_db is not None
    grid = _parse_grid(args.grid_db if in_db else args.grid)
    gbars = db_to_linear(grid) if in_db else grid
    if args.asymptotic:
        if model is not ModelKind.FDRLOS:
            raise DomainError("--asymptotic applies to the fdrlos model")
        vals = analytic.asymptotic_op(gamma_th, gbars, args.k, args.m,
                                      rel_tol=args.rel_tol)
    else:
        vals = _law(args, model, "cdf", FadingParams(args.k, args.m, gbars))(gamma_th)
    # the asymptote is no probability: it passes 1 at low mean SNR
    analytic.Curve(grid, vals, None if args.asymptotic else "op").write_csv(
        args.output or sys.stdout)
    return 0


def _variance(x, mean):
    """``np.var(x)`` given the mean of the flat array x: the squared
    deviations are summed over blocks of ``_VAR_BLOCK`` values in one scratch
    row, so no temporary of x's size is made."""
    row = np.empty(min(x.size, _VAR_BLOCK))
    total = 0.0
    for lo in range(0, x.size, _VAR_BLOCK):
        block = x[lo:lo + _VAR_BLOCK]
        d = np.subtract(block, mean, out=row[:block.size])
        np.square(d, out=d)
        total += float(d.sum())
    return total / x.size


def cmd_sim(args) -> int:
    model = ModelKind.parse(args.model)
    params = FadingParams(args.k, args.m, _linear(args, "gamma_bar"))
    sset = sample_snr(model, params, args.samples, args.seed, threads=args.threads)
    vals = sset.values
    cdf = empirics.tabulated_cdf(_law(args, model, "cdf", params),
                                 float(vals.min()), float(vals.max()),
                                 points=min(args.samples, 1500))
    report = empirics.ks_distance(sset, cdf)
    mean = float(np.mean(vals))
    variance = _variance(vals, mean)
    lines = [
        f"model={model.value}",
        f"k={params.k:.17g}",
        f"m={params.m:.17g}",
        f"gamma_bar={params.gamma_bar:.17g}",
        f"n={args.samples}",
        f"seed={args.seed}",
        f"mean={mean:.17g}",
        f"variance={variance:.17g}",
        f"ks_statistic={report.statistic:.17g}",
        f"ks_threshold={report.threshold:.17g}",
        f"ks_pass={str(report.passed).lower()}",
        f"mean_se={np.sqrt(variance / args.samples):.17g}",
        f"ks_margin={report.threshold - report.statistic:.17g}",
    ]
    text = "\n".join(lines) + "\n"
    # the dump goes first, so a path it cannot write leaves stdout empty
    if args.raw_output:
        with open(args.raw_output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("value\n")
            for v in vals:
                fh.write(f"{v:.17g}\n")
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# figure presets

_GTH_3DB = db_to_linear(3.0)


#: mean SNRs (dB) of the Monte-Carlo outage markers of fig3 and fig4
_MARKER_DB = np.arange(0.0, 40.0001, 5.0)


def _mc_op_curve(k, m, n, seed):
    unit = sample_snr(ModelKind.FDRLOS, FadingParams(k, m, 1.0), n, seed).values
    vals = [np.count_nonzero(unit < t) / n for t in _GTH_3DB / db_to_linear(_MARKER_DB)]
    return analytic.Curve(_MARKER_DB, np.array(vals), "op")


def _figure_fig1(mc_samples):
    k, gbar = 5.0, 2.0
    grid = np.linspace(0.0, 10.0, 401)
    files = {}
    for m in (1, 2, 3, 5, 15):
        params = FadingParams(k, m, gbar)
        files[f"fig1_fdrlos_pdf_m{m}.csv"] = analytic.Curve(
            grid, analytic.fdrlos_pdf(grid, params), "pdf")
        sset = sample_snr(ModelKind.FDRLOS, params, mc_samples, _MC_SEED + m)
        files[f"fig1_mc_hist_m{m}.csv"] = empirics.histogram_density(
            sset, 0.1, (0.0, 10.0))
    files["fig1_drlos_pdf_limit.csv"] = analytic.Curve(
        grid[1:], analytic.drlos_pdf_oracle(grid[1:], k, gbar), "pdf")
    return files


def _figure_fig3(mc_samples):
    k = 1.0
    db_grid = np.arange(0.0, 60.0001, 0.5)
    gbars = db_to_linear(db_grid)
    files = {}
    for m in (1, 3, 10):
        exact = analytic.fdrlos_cdf(_GTH_3DB, FadingParams(k, m, gbars))
        files[f"fig3_fdrlos_op_m{m}.csv"] = analytic.Curve(db_grid, exact, "op")
        files[f"fig3_asymptotic_op_m{m}.csv"] = analytic.Curve(
            db_grid, analytic.asymptotic_op(_GTH_3DB, gbars, k, m))
        files[f"fig3_mc_op_m{m}.csv"] = _mc_op_curve(k, m, mc_samples, _MC_SEED + 100 * m)
    drlos = analytic.drlos_cdf_oracle(_GTH_3DB, k, gbars)
    files["fig3_drlos_op_limit.csv"] = analytic.Curve(db_grid, drlos, "op")
    return files


def _figure_fig4(mc_samples):
    k = 6.0
    db_grid = np.arange(0.0, 40.0001, 0.5)
    gbars = db_to_linear(db_grid)
    files = {}
    for m in (1, 3, 5, 10):
        fd = analytic.fdrlos_cdf(_GTH_3DB, FadingParams(k, m, gbars))
        rs = analytic.rs_cdf(_GTH_3DB, k, m, gbars)
        files[f"fig4_fdrlos_op_m{m}.csv"] = analytic.Curve(db_grid, fd, "op")
        files[f"fig4_rs_op_m{m}.csv"] = analytic.Curve(db_grid, rs, "op")
        files[f"fig4_mc_op_m{m}.csv"] = _mc_op_curve(k, m, mc_samples, _MC_SEED + 200 * m)
    return files


def _figure_fig5(mc_samples):
    gbar = db_to_linear(25.0)
    k_grid = np.arange(0.0, 20.0001, 0.25)
    files = {}
    for m in (1, 3, 5, 10):
        fd = analytic.fdrlos_cdf(_GTH_3DB, FadingParams(k_grid, m, gbar))
        rs = analytic.rs_cdf(_GTH_3DB, k_grid, m, gbar)
        files[f"fig5_fdrlos_op_vs_k_m{m}.csv"] = analytic.Curve(k_grid, fd, "op")
        files[f"fig5_rs_op_vs_k_m{m}.csv"] = analytic.Curve(k_grid, rs, "op")
    return files


_FIGURES = {"fig1": _figure_fig1, "fig3": _figure_fig3,
            "fig4": _figure_fig4, "fig5": _figure_fig5}


def cmd_figure(name: str, output_dir: str, mc_samples: int = 10 ** 6) -> int:
    os.makedirs(output_dir, exist_ok=True)
    if name == "fig1":
        mc_samples = mc_samples * 10
    files = _FIGURES[name](mc_samples)
    for fname, curve in files.items():
        curve.write_csv(os.path.join(output_dir, fname))
        print(os.path.join(output_dir, fname))
    return 0


_COMMANDS = {"pdf": cmd_curve, "cdf": cmd_curve, "op": cmd_op, "sim": cmd_sim}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.subcommand == "figure":
            return cmd_figure(args.name, args.output_dir, args.mc_samples)
        check_rel_tol(args.rel_tol)
        return _COMMANDS[args.subcommand](args)
    except (DomainError, empirics.CdfContractError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
