"""Make the frozen reference values the benchmark checks outputs against.

Every value is computed with mpmath from the fading model's definition, with
no fdrlos code: conditioned on the scatter power x = |G3|^2 ~ Exp(1), the
fluctuating double-Rayleigh LoS SNR is Rician shadowed with K_x = K/x and
mean gbar (K + x)/(K + 1), so

    F(g) = int_0^inf e^-x F_RS(g | x) dx,   f(g) = int_0^inf e^-x f_RS(g | x) dx.

The conditional law is taken in positive form, so deep-outage values keep
their relative accuracy:

* integer m: the Erlang mixture obtained from the Kummer transform,
  F_RS = sum_k C(m-1, k) q^k p^(m-1-k) P(k+1, g/Omega_x), p = m x/(m x + K);
* real m: the 1F1 density integrated over [0, g] (nested quadrature);
* deterministic LoS (m -> inf): the Rician density with mpmath's besseli;
* Rician shadowed curves: the negative-binomial Poisson mixture
  sum_n NB(n; m, m/(m+K)) P(n+1, g (1+K)/gbar), a different identity from
  the Erlang mixture fdrlos uses;
* the high-SNR offset (1+K) Gamma(m) U(m, 1, K/m) with mpmath's hyperu.

Each value is computed at two working precisions and stored only to the
digits on which the two agree.  Inputs are formed in float64 exactly as the
CLI forms them, so a reference belongs to the double the program sees.

Run from the repository root (takes about ten minutes on two cores):

    python3 perfbench/make_refs.py            # writes perfbench/refs.json
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import mpmath as mp
import numpy as np

DPS = (20, 30)
STORE_DIGITS = 20
#: breakpoints of the scatter-power integrals; the conditional laws change
#: fastest at small x
X_BREAKS = [0, 0.01, 0.1, 1, 10, mp.inf]
GTH_3DB = 10.0 ** (3.0 / 10.0)   # the CLI's 3 dB outage threshold


def db_to_linear(db):
    return 10.0 ** (db / 10.0)


# ---------------------------------------------------------------------------
# model laws in mpmath


def _erlang_weights(k, m, x):
    den = m * x + k
    p, q = m * x / den, k / den
    return [mp.binomial(m - 1, j) * q ** j * p ** (m - 1 - j) for j in range(m)]


def _omega(k, m, gbar, x):
    return gbar * (k + m * x) / (m * (k + 1))


def fd_cdf_int(g, k, m, gbar):
    def integrand(x):
        y = g / _omega(k, m, gbar, x)
        w = _erlang_weights(k, m, x)
        return mp.exp(-x) * mp.fsum(w[j] * mp.gammainc(j + 1, 0, y, regularized=True)
                                    for j in range(m))
    return mp.quad(integrand, X_BREAKS)


def fd_pdf_int(g, k, m, gbar):
    def integrand(x):
        om = _omega(k, m, gbar, x)
        w = _erlang_weights(k, m, x)
        return mp.exp(-x) * mp.fsum(
            w[j] * g ** j * mp.exp(-g / om) / (mp.factorial(j) * om ** (j + 1))
            for j in range(m))
    return mp.quad(integrand, X_BREAKS)


def rs_pdf(u, k_x, m, gbar_x):
    w = k_x * (1 + k_x) * u / ((k_x + m) * gbar_x)
    return (m ** m * (1 + k_x) / ((m + k_x) ** m * gbar_x)
            * mp.exp(-(1 + k_x) * u / gbar_x) * mp.hyp1f1(m, 1, w))


def fd_pdf_real(g, k, m, gbar):
    return mp.quad(lambda x: mp.exp(-x) * rs_pdf(g, k / x, m, gbar * (k + x) / (k + 1)),
                   X_BREAKS)


def fd_cdf_real(g, k, m, gbar):
    def outer(x):
        k_x, gbar_x = k / x, gbar * (k + x) / (k + 1)
        return mp.exp(-x) * mp.quad(lambda u: rs_pdf(u, k_x, m, gbar_x), [0, g])
    return mp.quad(outer, X_BREAKS)


def rician_pdf(u, k_x, gbar_x):
    a = (1 + k_x) / gbar_x
    return a * mp.exp(-k_x - a * u) * mp.besseli(0, 2 * mp.sqrt(k_x * a * u))


def drlos_pdf(g, k, gbar):
    return mp.quad(lambda x: mp.exp(-x) * rician_pdf(g, k / x, gbar * (k + x) / (k + 1)),
                   X_BREAKS)


def drlos_cdf(g, k, gbar):
    """As x -> 0 the conditional law narrows onto the LoS power
    u0 = gbar K/(K+1), so the inner integral runs over the side of g that
    does not hold that spike: F = 1 - E[survival] when g > u0."""
    above = g > gbar * k / (k + 1)

    def outer(x):
        k_x, gbar_x = k / x, gbar * (k + x) / (k + 1)
        span = [g, mp.inf] if above else [0, g]
        return mp.exp(-x) * mp.quad(lambda u: rician_pdf(u, k_x, gbar_x), span)

    tail = mp.quad(outer, X_BREAKS)
    return 1 - tail if above else tail


def rs_cdf(g, k, m, gbar):
    """Negative-binomial Poisson mixture with a certified truncation: past the
    mode the pmf ratio r_n = q (n+m)/(n+1) falls, and P(n+1, y) falls in n, so
    the tail after term n is at most term_n * r/(1 - r)."""
    y = g * (1 + k) / gbar
    if k == 0:
        return mp.gammainc(1, 0, y, regularized=True)
    p, q = m / (m + k), k / (m + k)
    pmf = p ** m
    total = mp.mpf(0)
    eps = mp.mpf(10) ** (-mp.mp.dps - 5)
    n = 0
    while True:
        term = pmf * mp.gammainc(n + 1, 0, y, regularized=True)
        total += term
        r = q * (n + 1 + m) / (n + 2)
        if r < 1 and n > m and term * r / (1 - r) <= eps * total:
            return total
        pmf *= q * (n + m) / (n + 1)
        n += 1


def coding_gain(k, m):
    return (1 + k) * mp.gamma(m) * mp.hyperu(m, 1, k / m)


LAWS = {"fd_cdf_int": fd_cdf_int, "fd_pdf_int": fd_pdf_int,
        "fd_cdf_real": fd_cdf_real, "fd_pdf_real": fd_pdf_real,
        "drlos_cdf": drlos_cdf, "drlos_pdf": drlos_pdf,
        "rs_cdf": rs_cdf, "coding_gain": coding_gain}


def _law_args(args):
    """Doubles go in exactly; integer m stays an int so the sums stay finite."""
    return [a if isinstance(a, int) else mp.mpf(a) for a in args]


def evaluate(task):
    """(law, args) -> (value string, agreed digits) from two precisions."""
    law, args = task
    vals = []
    for dps in DPS:
        with mp.workdps(dps):
            vals.append(LAWS[law](*_law_args(args)))
    lo, hi = vals
    with mp.workdps(DPS[1]):
        if lo == hi:
            digits = DPS[0]
        else:
            digits = int(mp.floor(-mp.log10(abs(lo - hi) / abs(hi))))
        return mp.nstr(hi, max(1, min(digits, STORE_DIGITS)), min_fixed=1, max_fixed=0), digits


# ---------------------------------------------------------------------------
# the outputs the benchmark checks, with the CLI's own input arithmetic


def every(n, step):
    """Indices 0, step, 2*step, ... and the last one."""
    return sorted(set(range(0, n, step)) | {n - 1})


def plan():
    """{file: {"quantity", "points": [(x, law, args)], "mc": ..., "mass": ...}}"""
    files = {}

    grid = np.linspace(0.0, 10.0, 401)
    for m in (1, 2, 3, 5, 15):
        files[f"fig1_fdrlos_pdf_m{m}.csv"] = {
            "quantity": "pdf",
            "points": [(grid[i], "fd_pdf_int", (grid[i], 5.0, m, 2.0)) for i in every(401, 20)]}
        files[f"fig1_mc_hist_m{m}.csv"] = {
            "quantity": "pdf", "mass": ("fd_cdf_int", (10.0, 5.0, m, 2.0)),
            "bin_width": 0.1, "samples_factor": 10}
    g1 = grid[1:]
    files["fig1_drlos_pdf_limit.csv"] = {
        "quantity": "pdf",
        "points": [(g1[i], "drlos_pdf", (g1[i], 5.0, 2.0)) for i in every(400, 20)]}

    def op_sweep(db_grid, step):
        return [(db_grid[i], db_to_linear(db_grid[i])) for i in every(len(db_grid), step)]

    markers = np.arange(0.0, 40.0001, 5.0)
    db3 = np.arange(0.0, 60.0001, 0.5)
    for m in (1, 3, 10):
        files[f"fig3_fdrlos_op_m{m}.csv"] = {
            "quantity": "op",
            "points": [(db, "fd_cdf_int", (GTH_3DB, 1.0, m, gb)) for db, gb in op_sweep(db3, 10)]}
        files[f"fig3_asymptotic_op_m{m}.csv"] = {
            "quantity": "op-asymptote", "gain": ("coding_gain", (1.0, m)),
            "points": [(db, GTH_3DB / gb) for db, gb in op_sweep(db3, 10)]}
        files[f"fig3_mc_op_m{m}.csv"] = {
            "quantity": "op", "samples_factor": 1,
            "mc": [(db, "fd_cdf_int", (GTH_3DB, 1.0, m, db_to_linear(db))) for db in markers]}
    files["fig3_drlos_op_limit.csv"] = {
        "quantity": "op",
        "points": [(db, "drlos_cdf", (GTH_3DB, 1.0, gb)) for db, gb in op_sweep(db3, 20)]}

    db4 = np.arange(0.0, 40.0001, 0.5)
    for m in (1, 3, 5, 10):
        files[f"fig4_fdrlos_op_m{m}.csv"] = {
            "quantity": "op",
            "points": [(db, "fd_cdf_int", (GTH_3DB, 6.0, m, gb)) for db, gb in op_sweep(db4, 10)]}
        files[f"fig4_rs_op_m{m}.csv"] = {
            "quantity": "op",
            "points": [(db, "rs_cdf", (GTH_3DB, 6.0, m, gb)) for db, gb in op_sweep(db4, 10)]}
        files[f"fig4_mc_op_m{m}.csv"] = {
            "quantity": "op", "samples_factor": 1,
            "mc": [(db, "fd_cdf_int", (GTH_3DB, 6.0, m, db_to_linear(db))) for db in markers]}

    k_grid = np.arange(0.0, 20.0001, 0.25)
    gbar5 = db_to_linear(25.0)
    for m in (1, 3, 5, 10):
        ks = [k_grid[i] for i in every(len(k_grid), 10)]
        files[f"fig5_fdrlos_op_vs_k_m{m}.csv"] = {
            "quantity": "op",
            "points": [(k, "fd_cdf_int", (GTH_3DB, k, m, gbar5)) for k in ks]}
        files[f"fig5_rs_op_vs_k_m{m}.csv"] = {
            "quantity": "op",
            "points": [(k, "rs_cdf", (GTH_3DB, k, m, gbar5)) for k in ks]}

    log_grid = np.geomspace(0.01, 20.0, 16)
    files["mcv_cdf_k5_m3.csv"] = {
        "quantity": "cdf",
        "points": [(g, "fd_cdf_int", (g, 5.0, 3, 2.0)) for g in log_grid]}
    files["oracle_cdf_k3_m2.5.csv"] = {
        "quantity": "cdf",
        "points": [(g, "fd_cdf_real", (g, 3.0, 2.5, 2.0)) for g in log_grid]}
    lin_grid = np.linspace(0.01, 20.0, 401)
    files["oracle_pdf_k3_m2.5.csv"] = {
        "quantity": "pdf",
        "points": [(lin_grid[i], "fd_pdf_real", (lin_grid[i], 3.0, 2.5, 2.0))
                   for i in every(401, 20)]}
    return files


def _py(args):
    return tuple(int(a) if isinstance(a, int) else float(a) for a in args)


def tasks_of(files):
    tasks = set()
    for spec in files.values():
        for pt in spec.get("points", []) + spec.get("mc", []):
            if len(pt) == 3:
                tasks.add((pt[1], _py(pt[2])))
        for key in ("mass", "gain"):
            if key in spec:
                tasks.add((spec[key][0], _py(spec[key][1])))
    # slowest first, so the workers finish together
    return sorted(tasks, key=lambda t: (not t[0].endswith(("real", "drlos_cdf")), t))


CROSS_CHECKS = [
    # (label, law a, args a, law b, args b): two formulas for one number
    ("integer-m cdf: Erlang mixture vs nested 1F1",
     "fd_cdf_int", (1.0, 5.0, 3, 2.0), "fd_cdf_real", (1.0, 5.0, 3.0, 2.0)),
    ("integer-m pdf: Erlang mixture vs 1F1",
     "fd_pdf_int", (1.0, 5.0, 3, 2.0), "fd_pdf_real", (1.0, 5.0, 3.0, 2.0)),
    ("Rician shadowed cdf: NB mixture vs Erlang mixture at x -> 1",
     "rs_cdf", (2.0, 6.0, 3, 10.0), "rs_cdf_erlang", (2.0, 6.0, 3, 10.0)),
    ("coding gain: hyperu vs outage limit integral",
     "coding_gain", (1.0, 10), "gain_integral", (1.0, 10)),
    ("K = 0 cdf: Erlang mixture vs 1 - 2 sqrt(c) K1(2 sqrt(c))",
     "fd_cdf_int", (2.0, 0.0, 3, 316.0), "k0_cdf", (2.0, 0.0, 3, 316.0)),
]


def _rs_cdf_erlang(g, k, m, gbar):
    om = gbar * (k + m) / (m * (k + 1))
    p, q = m / (m + k), k / (m + k)
    return mp.fsum(mp.binomial(m - 1, j) * q ** j * p ** (m - 1 - j)
                   * mp.gammainc(j + 1, 0, g / om, regularized=True) for j in range(m))


def _gain_integral(k, m):
    z = k / m
    return (1 + k) * mp.quad(lambda t: mp.exp(-z * t) * t ** (m - 1) * (1 + t) ** (-m),
                             [0, 1, mp.inf])


def _k0_cdf(g, k, m, gbar):
    c = g / gbar
    return 1 - 2 * mp.sqrt(c) * mp.besselk(1, 2 * mp.sqrt(c))


CHECK_LAWS = dict(LAWS, rs_cdf_erlang=_rs_cdf_erlang, gain_integral=_gain_integral,
                  k0_cdf=_k0_cdf)


def cross_check(item):
    label, la, aa, lb, ab = item
    with mp.workdps(DPS[0]):
        va = CHECK_LAWS[la](*_law_args(aa))
        vb = CHECK_LAWS[lb](*_law_args(ab))
        agree = -mp.log10(abs(va - vb) / abs(vb)) if va != vb else mp.mpf(DPS[0])
    return label, float(agree)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(Path(__file__).with_name("refs.json")))
    args = ap.parse_args(argv)

    files = plan()
    tasks = tasks_of(files)
    t0 = time.time()
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=os.cpu_count(), mp_context=ctx) as pool:
        checks = list(pool.map(cross_check, CROSS_CHECKS))
        for label, agree in checks:
            print(f"cross-check {agree:5.1f} digits  {label}", flush=True)
            if agree < 15:
                sys.exit(f"cross-check failed: {label}")
        values = dict(zip(tasks, pool.map(evaluate, tasks)))
    print(f"{len(tasks)} references in {time.time() - t0:.0f} s", flush=True)

    def ref(law, a):
        return list(values[(law, _py(a))])

    out = {}
    for name, spec in files.items():
        entry = {"quantity": spec["quantity"]}
        if "gain" in spec:
            gain, digits = ref(*spec["gain"])
            with mp.workdps(DPS[1]):
                entry["points"] = [[float(x), mp.nstr(mp.mpf(gain) * mp.mpf(s), STORE_DIGITS,
                                                      min_fixed=1, max_fixed=0), digits]
                                   for x, s in spec["points"]]
        elif "points" in spec:
            entry["points"] = [[float(x)] + ref(law, a) for x, law, a in spec["points"]]
        if "mc" in spec:
            entry["mc"] = [[float(x)] + ref(law, a) for x, law, a in spec["mc"]]
            entry["samples_factor"] = spec["samples_factor"]
        if "mass" in spec:
            entry["mass"] = ref(*spec["mass"])
            entry["bin_width"] = spec["bin_width"]
            entry["samples_factor"] = spec["samples_factor"]
        out[name] = entry
    digits = [p[2] for e in out.values() for p in e.get("points", [])]
    doc = {"generator": "perfbench/make_refs.py", "mpmath": mp.__version__,
           "dps": list(DPS), "min_agreed_digits": min(digits),
           "cross_checks": {label: round(agree, 1) for label, agree in checks},
           "files": out}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}; fewest agreed digits {min(digits)}")


if __name__ == "__main__":
    main()
