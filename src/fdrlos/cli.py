"""Command-line surface: evaluators, samplers and figure-reproduction presets.

All numeric flags are linear unless the flag name ends in ``-db``; dB values
are converted once at this boundary via linear = 10^(dB/10).  Output is CSV
(UTF-8, comma, header row, LF) with 17 significant digits, which round-trips
doubles exactly.

Exit codes: 0 success, 2 usage/domain error, 3 numeric or convergence
failure.

Sweeps over the mean SNR (``op`` and the fig3/fig4 outage curves) use the
scale-family identity every model's SNR law obeys,
F(gamma; K, m, gamma_bar) = F(gamma / gamma_bar; K, m, 1), so each curve is
one vector cdf evaluation at gamma_bar = 1 on gamma_th / gamma_bar.

Figure presets (the plotted m-sets are choices of this artifact, recorded
here; seeds and sample counts are pinned so runs reproduce byte-for-byte):

* fig1  pdf vs snr, K=5, mean snr 2; m in {1,2,3,5,15}; deterministic-LoS
        limit curve; per-m Monte-Carlo histograms (1e7 samples, bin 0.1).
* fig3  outage vs mean snr (dB), K=1, threshold 3 dB; m in {1,3,10};
        high-SNR asymptotes; deterministic-LoS limit; MC markers.
* fig4  outage vs mean snr (dB), K=6, threshold 3 dB; m in {1,3,5,10};
        fluctuating-LoS double-Rayleigh vs Rician shadowed; MC markers.
* fig5  outage vs K, mean snr 25 dB, threshold 3 dB; m in {1,3,5,10};
        each curve, K=0 included, is one vector outage call.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import analytic, empirics
from .models import FadingParams, ModelKind, sample_snr
from .specfun import AccuracyError, DomainError, QuadratureConfig

_MC_SEED = 20260810


def db_to_linear(db):
    """linear = 10^(dB/10) for a number or an array; a value whose linear
    form overflows a double is a DomainError."""
    try:
        with np.errstate(over="raise"):
            return 10.0 ** (db / 10.0)
    except (OverflowError, FloatingPointError):
        raise DomainError(f"{np.max(db):g} dB overflows a double") from None


@dataclass(frozen=True)
class Grid:
    lo: float
    hi: float
    points: int
    spacing: str = "lin"   # lin | log
    in_db: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise DomainError("grid bounds must be finite")
        if not (self.lo < self.hi):
            raise DomainError("grid min must be below grid max")
        if self.points < 2:
            raise DomainError("grid needs at least 2 points")
        if self.spacing not in ("lin", "log"):
            raise DomainError("grid spacing must be lin or log")
        if self.spacing == "log" and self.lo <= 0:
            raise DomainError("log grid needs a positive minimum")

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.lo, self.hi, self.points)
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation; every physical value already linear."""

    subcommand: str
    model: ModelKind = ModelKind.FDRLOS
    k: float = 1.0
    m: float = 1.0
    gamma_bar: float = 1.0
    gamma_th: float = 1.0
    samples: int = 0
    seed: int = 0
    threads: int = 1
    grid: Grid | None = None
    output: str | None = None
    oracle: bool = False
    asymptotic: bool = False
    rel_tol: float = 1e-10


def _parse_grid(text: str, in_db: bool) -> Grid:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise DomainError(f"grid must be min:max:points[:lin|log], got {text!r}")
    spacing = parts[3] if len(parts) == 4 else "lin"
    return Grid(float(parts[0]), float(parts[1]), int(parts[2]), spacing, in_db)


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
                       help="force the quadrature-oracle path")
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


def _config_from_args(args) -> RunConfig:
    gbar = getattr(args, "gamma_bar", None)
    if gbar is None and getattr(args, "gamma_bar_db", None) is not None:
        gbar = db_to_linear(args.gamma_bar_db)
    gth = getattr(args, "gamma_th", None)
    if gth is None and getattr(args, "gamma_th_db", None) is not None:
        gth = db_to_linear(args.gamma_th_db)
    grid = None
    if getattr(args, "grid", None):
        grid = _parse_grid(args.grid, in_db=False)
    elif getattr(args, "grid_db", None):
        grid = _parse_grid(args.grid_db, in_db=True)
    return RunConfig(
        subcommand=args.subcommand,
        model=ModelKind.parse(args.model),
        k=args.k,
        m=args.m,
        gamma_bar=gbar if gbar is not None else 1.0,
        gamma_th=gth if gth is not None else 1.0,
        samples=getattr(args, "samples", 0),
        seed=getattr(args, "seed", 0),
        threads=getattr(args, "threads", 1),
        grid=grid,
        output=getattr(args, "output", None),
        oracle=getattr(args, "oracle", False),
        asymptotic=getattr(args, "asymptotic", False),
        rel_tol=getattr(args, "rel_tol", 1e-10),
    )


def _quad_cfg(cfg: RunConfig) -> QuadratureConfig:
    return QuadratureConfig(rel_tol=cfg.rel_tol)


def _pdf_fn(cfg: RunConfig):
    params = FadingParams(cfg.k, cfg.m, cfg.gamma_bar)
    q = _quad_cfg(cfg)
    if cfg.model is ModelKind.FDRLOS:
        if cfg.oracle:
            return lambda g: analytic.fdrlos_pdf_oracle(g, params, q)
        if not params.m_is_integer:
            raise DomainError("fdrlos pdf/cdf need integer m; pass --oracle for real m")
        return lambda g: analytic.fdrlos_pdf(g, params, q)
    if cfg.model is ModelKind.RICIAN_SHADOWED:
        return lambda g: analytic.rs_pdf(g, cfg.k, cfg.m, cfg.gamma_bar)
    if cfg.model is ModelKind.DRLOS:
        return lambda g: analytic.drlos_pdf_oracle(g, cfg.k, cfg.gamma_bar, q)
    return lambda g: analytic.rician_pdf(g, cfg.k, cfg.gamma_bar)


def _cdf_fn(cfg: RunConfig, params: FadingParams | None = None):
    """cdf of cfg's model and route at ``params`` (default: cfg's own)."""
    params = params or FadingParams(cfg.k, cfg.m, cfg.gamma_bar)
    k, m, gbar = params.k, params.m, params.gamma_bar
    q = _quad_cfg(cfg)
    if cfg.model is ModelKind.FDRLOS:
        if cfg.oracle:
            return lambda g: analytic.fdrlos_cdf_oracle(g, params, q)
        if not params.m_is_integer:
            raise DomainError("fdrlos pdf/cdf need integer m; pass --oracle for real m")
        return lambda g: analytic.fdrlos_cdf(g, params, q)
    if cfg.model is ModelKind.RICIAN_SHADOWED:
        return lambda g: analytic.rs_cdf(g, k, m, gbar)
    if cfg.model is ModelKind.DRLOS:
        return lambda g: analytic.drlos_cdf_oracle(g, k, gbar, q)
    return lambda g: analytic.rician_cdf(g, k, gbar)


def _emit(curve: analytic.Curve, output: str | None) -> None:
    if output:
        curve.write_csv(output)
    else:
        sys.stdout.write(curve.to_csv_text())


def cmd_pdf(cfg: RunConfig) -> int:
    grid = cfg.grid.values()
    vals = _pdf_fn(cfg)(grid)
    _emit(analytic.Curve(grid, vals, meta={"quantity": "pdf",
                                           "model": cfg.model.value}), cfg.output)
    return 0


def cmd_cdf(cfg: RunConfig) -> int:
    grid = cfg.grid.values()
    vals = _cdf_fn(cfg)(grid)
    _emit(analytic.Curve(grid, vals, meta={"quantity": "cdf",
                                           "model": cfg.model.value}), cfg.output)
    return 0


def cmd_op(cfg: RunConfig) -> int:
    grid = cfg.grid.values()
    gbars = db_to_linear(grid) if cfg.grid.in_db else grid
    if not np.all(gbars > 0):
        raise DomainError("mean-SNR grid values must be positive")
    q = _quad_cfg(cfg)
    if cfg.asymptotic:
        if cfg.model is not ModelKind.FDRLOS:
            raise DomainError("--asymptotic applies to the fdrlos model")
        vals = analytic.asymptotic_op(cfg.gamma_th, gbars, cfg.k, cfg.m, q)
    else:
        unit = FadingParams(cfg.k, cfg.m, 1.0)
        vals = _cdf_fn(cfg, unit)(cfg.gamma_th / gbars)
    meta = {"quantity": "op" if not cfg.asymptotic else "op-asymptote",
            "model": cfg.model.value, "abscissa_unit": "dB" if cfg.grid.in_db else "linear"}
    _emit(analytic.Curve(grid, vals, meta=meta), cfg.output)
    return 0


def cmd_sim(cfg: RunConfig, raw_output: str | None = None) -> int:
    params = FadingParams(cfg.k, cfg.m, cfg.gamma_bar)
    sset = sample_snr(cfg.model, params, cfg.samples, cfg.seed, threads=cfg.threads)
    vals = sset.values
    cdf_scalar = _cdf_fn(cfg, params)
    cdf = empirics.tabulated_cdf(cdf_scalar, float(vals.min()), float(vals.max()))
    report = empirics.ks_distance(sset, cdf)
    variance = float(np.var(vals))
    lines = [
        f"model={cfg.model.value}",
        f"k={cfg.k:.17g}",
        f"m={cfg.m:.17g}",
        f"gamma_bar={cfg.gamma_bar:.17g}",
        f"n={cfg.samples}",
        f"seed={cfg.seed}",
        f"mean={float(np.mean(vals)):.17g}",
        f"variance={variance:.17g}",
        f"ks_statistic={report.statistic:.17g}",
        f"ks_threshold={report.threshold:.17g}",
        f"ks_pass={str(report.passed).lower()}",
        f"mean_se={np.sqrt(variance / cfg.samples):.17g}",
        f"ks_margin={report.threshold - report.statistic:.17g}",
    ]
    text = "\n".join(lines) + "\n"
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if raw_output:
        with open(raw_output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("value\n")
            for v in vals:
                fh.write(f"{v:.17g}\n")
    return 0


# ---------------------------------------------------------------------------
# figure presets

_GTH_3DB = db_to_linear(3.0)


def _mc_op_curve(model, k, m, gbar_db_points, gamma_th, n, seed):
    vals = []
    for i, db in enumerate(gbar_db_points):
        params = FadingParams(k, m, db_to_linear(db))
        s = sample_snr(model, params, n, seed + i)
        vals.append(float(np.mean(s.values < gamma_th)))
    return analytic.Curve(np.asarray(gbar_db_points, float), np.array(vals),
                          meta={"quantity": "op", "source": "mc",
                                "abscissa_unit": "dB"})


def _figure_fig1(mc_samples):
    k, gbar = 5.0, 2.0
    grid = np.linspace(0.0, 10.0, 401)
    files = {}
    for m in (1, 2, 3, 5, 15):
        params = FadingParams(k, m, gbar)
        files[f"fig1_fdrlos_pdf_m{m}.csv"] = analytic.Curve(
            grid, analytic.fdrlos_pdf(grid, params),
            meta={"quantity": "pdf", "model": "fdrlos"})
        sset = sample_snr(ModelKind.FDRLOS, params, mc_samples, _MC_SEED + m)
        files[f"fig1_mc_hist_m{m}.csv"] = empirics.histogram_density(
            sset, 0.1, (0.0, 10.0))
    files["fig1_drlos_pdf_limit.csv"] = analytic.Curve(
        grid[1:], analytic.drlos_pdf_oracle(grid[1:], k, gbar),
        meta={"quantity": "pdf", "model": "drlos"})
    return files


def _figure_fig3(mc_samples):
    k = 1.0
    db_grid = np.arange(0.0, 60.0001, 0.5)
    gbars = db_to_linear(db_grid)
    unit_gth = _GTH_3DB / gbars
    marker_db = np.arange(0.0, 40.0001, 5.0)
    files = {}
    for m in (1, 3, 10):
        exact = analytic.fdrlos_cdf(unit_gth, FadingParams(k, m, 1.0))
        files[f"fig3_fdrlos_op_m{m}.csv"] = analytic.Curve(
            db_grid, exact, meta={"quantity": "op", "model": "fdrlos",
                                  "abscissa_unit": "dB"})
        files[f"fig3_asymptotic_op_m{m}.csv"] = analytic.Curve(
            db_grid, analytic.asymptotic_op(_GTH_3DB, gbars, k, m),
            meta={"quantity": "op-asymptote", "model": "fdrlos",
                  "abscissa_unit": "dB"})
        files[f"fig3_mc_op_m{m}.csv"] = _mc_op_curve(
            ModelKind.FDRLOS, k, m, marker_db, _GTH_3DB, mc_samples, _MC_SEED + 100 * m)
    drlos = analytic.drlos_cdf_oracle(unit_gth, k, 1.0)
    files["fig3_drlos_op_limit.csv"] = analytic.Curve(
        db_grid, drlos, meta={"quantity": "op", "model": "drlos",
                              "abscissa_unit": "dB"})
    return files


def _figure_fig4(mc_samples):
    k = 6.0
    db_grid = np.arange(0.0, 40.0001, 0.5)
    gbars = db_to_linear(db_grid)
    marker_db = np.arange(0.0, 40.0001, 5.0)
    files = {}
    for m in (1, 3, 5, 10):
        fd = analytic.fdrlos_cdf(_GTH_3DB / gbars, FadingParams(k, m, 1.0))
        rs = analytic.rs_cdf_integer(_GTH_3DB, k, m, gbars)
        files[f"fig4_fdrlos_op_m{m}.csv"] = analytic.Curve(
            db_grid, fd, meta={"quantity": "op", "model": "fdrlos",
                               "abscissa_unit": "dB"})
        files[f"fig4_rs_op_m{m}.csv"] = analytic.Curve(
            db_grid, rs, meta={"quantity": "op", "model": "rician-shadowed",
                               "abscissa_unit": "dB"})
        files[f"fig4_mc_op_m{m}.csv"] = _mc_op_curve(
            ModelKind.FDRLOS, k, m, marker_db, _GTH_3DB, mc_samples, _MC_SEED + 200 * m)
    return files


def _figure_fig5(mc_samples):
    gbar = db_to_linear(25.0)
    k_grid = np.arange(0.0, 20.0001, 0.25)
    files = {}
    for m in (1, 3, 5, 10):
        fd = analytic.outage_probability(_GTH_3DB, k_grid, m, gbar)
        rs = analytic.rs_cdf_integer(_GTH_3DB, k_grid, m, np.full_like(k_grid, gbar))
        files[f"fig5_fdrlos_op_vs_k_m{m}.csv"] = analytic.Curve(
            k_grid, fd, meta={"quantity": "op", "model": "fdrlos",
                              "abscissa_unit": "K"})
        files[f"fig5_rs_op_vs_k_m{m}.csv"] = analytic.Curve(
            k_grid, rs, meta={"quantity": "op", "model": "rician-shadowed",
                              "abscissa_unit": "K"})
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.subcommand == "figure":
            return cmd_figure(args.name, args.output_dir, args.mc_samples)
        cfg = _config_from_args(args)
        if args.subcommand == "pdf":
            return cmd_pdf(cfg)
        if args.subcommand == "cdf":
            return cmd_cdf(cfg)
        if args.subcommand == "op":
            return cmd_op(cfg)
        if args.subcommand == "sim":
            return cmd_sim(cfg, raw_output=getattr(args, "raw_output", None))
        raise DomainError(f"unknown subcommand {args.subcommand!r}")
    except (DomainError, empirics.CdfContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
