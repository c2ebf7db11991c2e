import argparse
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.special import k0

import fdrlos
from fdrlos import analytic, cli
from fdrlos.analytic import Curve
from fdrlos.cli import _parse_grid, cmd_figure, db_to_linear, main
from fdrlos.specfun import DomainError
from test_analytic import GAIN_TINY_K


def run(argv):
    return main(argv)


#: ``np.loadtxt`` arguments that read a curve CSV as (abscissa, value) columns
CSV = dict(delimiter=",", skiprows=1, ndmin=2, unpack=True)


def read_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


class TestGridParsing:
    def test_basic(self):
        np.testing.assert_array_equal(_parse_grid("0:10:200"), np.linspace(0.0, 10.0, 200))

    def test_log_spacing(self):
        np.testing.assert_allclose(_parse_grid("0.1:10:5:log"), np.geomspace(0.1, 10, 5))

    def test_invalid(self):
        for text, message in [
            ("5:1:10", "grid min must be below grid max"),
            ("0:1:1", "grid needs at least 2 points"),
            ("0:1:10:log", "log grid needs a positive minimum"),
            ("0:1:10:cubic", "grid spacing must be lin or log"),
            ("0:1", "grid must be min:max:points"),
            ("a:1:3", "grid must be min:max:points"),
            ("0:1:2.5", "grid must be min:max:points"),
            ("0:inf:3", "grid bounds must be finite"),
            ("-inf:1:3", "grid bounds must be finite"),
            ("0:nan:3", "grid bounds must be finite"),
            ("nan:1:3", "grid bounds must be finite"),
        ]:
            with pytest.raises(DomainError, match=message):
                _parse_grid(text)

    def test_db_conversion(self):
        assert db_to_linear(3.0) == pytest.approx(10 ** 0.3)
        assert db_to_linear(0.0) == 1.0
        with pytest.raises(DomainError, match="overflows"):
            db_to_linear(4000.0)
        with pytest.raises(DomainError, match="overflows"):
            db_to_linear(np.array([0.0, 4000.0]))


@pytest.mark.parametrize("argv,message", [
    (["cdf", "--k", "1", "--gamma-bar", "1", "--grid", "0:inf:3"], "grid bounds"),
    (["cdf", "--k", "1", "--gamma-bar", "1", "--grid", "0:nan:3"], "grid bounds"),
    (["op", "--k", "1", "--gamma-th", "1", "--grid", "1:inf:3"], "grid bounds"),
    (["op", "--k", "1", "--gamma-th", "1", "--grid-db", "0:4000:3"], "overflows"),
    (["cdf", "--k", "1", "--gamma-bar-db", "4000", "--grid", "0:1:3"], "overflows"),
    (["op", "--k", "1", "--gamma-th-db", "4000", "--grid", "1:2:3"], "overflows"),
    (["cdf", "--k", "1", "--m", "2", "--gamma-bar", "2", "--grid", "0:1:3",
      "--rel-tol", "5"], "rel_tol"),
    (["pdf", "--model", "rician", "--k", "1", "--gamma-bar", "2", "--grid", "0:1:3",
      "--rel-tol", "5"], "rel_tol"),
    (["cdf", "--model", "rician-shadowed", "--k", "1", "--m", "2.5", "--gamma-bar", "2",
      "--grid", "0:1:3", "--rel-tol", "5"], "rel_tol"),
    (["op", "--k", "1", "--m", "2", "--gamma-th", "2", "--grid-db", "0:10:3",
      "--asymptotic", "--rel-tol", "5"], "rel_tol"),
    (["cdf", "--k", "1", "--gamma-bar", "1", "--grid", "a:1:3"], "min:max:points"),
    (["op", "--k", "inf", "--m", "2", "--gamma-th", "2", "--grid-db", "0:10:3",
      "--asymptotic"], "finite K > 0"),
    (["op", "--k", "nan", "--m", "2", "--gamma-th", "2", "--grid-db", "0:10:3",
      "--asymptotic"], "finite K > 0"),
    (["op", "--k", "-1", "--m", "2", "--gamma-th", "2", "--grid-db", "0:10:3",
      "--asymptotic"], "finite K > 0"),
    (["op", "--k", "1", "--m", "2", "--gamma-th", "inf", "--grid-db", "0:10:3",
      "--asymptotic"], "gamma_th"),
    (["cdf", "--k", "1", "--m", "3", "--gamma-bar", "1", "--grid", "1:2:3",
      "--output", "/nonexistent/x.csv"], "/nonexistent/x.csv"),
    (["figure", "fig5", "--output-dir", os.path.abspath(__file__)], "File exists"),
    (["sim", "--k", "1", "--m", "1", "--gamma-bar", "1", "--samples", "50",
      "--raw-output", "/nonexistent/r.csv"], "/nonexistent/r.csv"),
], ids=["grid-inf", "grid-nan", "op-grid-inf", "grid-db-overflow",
        "gamma-bar-db-overflow", "gamma-th-db-overflow", "rel-tol-above-one",
        "rician-rel-tol", "rician-shadowed-rel-tol", "asymptote-rel-tol",
        "grid-not-a-number", "asymptote-k-inf", "asymptote-k-nan",
        "asymptote-k-negative", "asymptote-gamma-th-inf", "unwritable-output",
        "output-dir-is-a-file", "unwritable-raw-output"])
def test_bad_boundary_value_gives_one_error_line(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


class TestPdfCommand:
    def test_row_count_and_nonnegativity(self, tmp_path):
        out = tmp_path / "pdf.csv"
        code = run(["pdf", "--k", "5", "--m", "3", "--gamma-bar", "2",
                    "--grid", "0:10:200", "--output", str(out)])
        assert code == 0
        rows = read_rows(str(out))
        assert rows[0] == "abscissa,value"
        assert len(rows) == 201
        _, values = np.loadtxt(out, **CSV)
        assert np.all(values >= 0)

    def test_round_trip_lossless(self, tmp_path):
        out = tmp_path / "pdf.csv"
        run(["pdf", "--k", "1", "--m", "2", "--gamma-bar-db", "3",
             "--grid", "0.1:4:30:log", "--output", str(out)])
        x, y = np.loadtxt(out, **CSV)
        out2 = tmp_path / "again.csv"
        Curve(x, y).write_csv(str(out2))
        assert out2.read_bytes() == out.read_bytes()

    def test_stdout_carries_the_output_file(self, tmp_path, capsys):
        # one writer: without --output the same CSV goes to stdout
        argv = ["pdf", "--k", "1", "--m", "2", "--gamma-bar", "1", "--grid", "0.1:4:5"]
        out = tmp_path / "pdf.csv"
        assert run(argv + ["--output", str(out)]) == 0
        assert run(argv) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("route", [
        ["--m", "3"], ["--m", "2.5", "--oracle"], ["--model", "drlos"],
    ], ids=["fdrlos", "fdrlos-oracle", "drlos"])
    def test_no_los_density_is_infinite_at_origin(self, route, tmp_path):
        out = tmp_path / "pdf.csv"
        assert run(["pdf", *route, "--k", "0", "--gamma-bar", "2",
                    "--grid", "0:1:2", "--output", str(out)]) == 0
        assert read_rows(str(out))[1] == "0,inf"
        # the law there is (2/gbar) K0(2 sqrt(g/gbar))
        assert np.loadtxt(out, **CSV)[1][1] == pytest.approx(
            k0(2.0 * np.sqrt(0.5)), rel=1e-9)

    def test_density_at_origin_below_m_1(self, tmp_path):
        # the value at 0 is the coding gain, not a scatter average that
        # meets an x^(m-1) endpoint
        out = tmp_path / "pdf.csv"
        assert run(["pdf", "--k", "1", "--m", "0.5", "--gamma-bar", "1",
                    "--grid", "0:1:3", "--output", str(out)]) == 0
        assert np.all(np.isfinite(np.loadtxt(out, **CSV)[1]))

    def test_density_at_origin_at_tiny_k(self, tmp_path):
        # the value at 0 is the coding gain, which grows only like log(1/K):
        # log(m/K) - psi(m) - 2 gamma_E to 1e-28 here (DLMF 13.2(iii))
        out = tmp_path / "pdf.csv"
        assert run(["pdf", "--k", "1e-30", "--m", "5", "--gamma-bar", "1",
                    "--grid", "0:1:3", "--output", str(out)]) == 0
        assert np.loadtxt(out, **CSV)[1][0] == pytest.approx(GAIN_TINY_K, rel=1e-12)

    @pytest.mark.parametrize("m", ["30.5", "50.5", "140.5", "1000.5"])
    def test_real_m_past_25(self, m, tmp_path):
        # the 1F1 arguments run past x = 200 below m^2, where the large-x
        # expansion cannot converge, and from m = 140.5 past the 2e4 terms
        # of a series from k = 0 (test_analytic pins the values)
        out = tmp_path / "pdf.csv"
        assert run(["pdf", "--k", "1", "--m", m, "--gamma-bar", "1",
                    "--grid", "0.5:2:3", "--output", str(out)]) == 0
        assert np.all(np.loadtxt(out, **CSV)[1] > 0)

    @pytest.mark.parametrize("model", ["rician", "rician-shadowed", "drlos"])
    def test_ancestor_models(self, model, tmp_path):
        out = tmp_path / f"{model}.csv"
        code = run(["pdf", "--model", model, "--k", "2", "--m", "2",
                    "--gamma-bar", "1", "--grid", "0.2:3:12", "--output", str(out)])
        assert code == 0
        assert np.all(np.loadtxt(out, **CSV)[1] >= 0)


class TestCdfCommand:
    RS = ["cdf", "--model", "rician-shadowed", "--k", "3", "--m", "2.5",
          "--gamma-bar", "2"]

    def test_monotone_and_bounded(self, tmp_path):
        out = tmp_path / "cdf.csv"
        assert run(["cdf", "--k", "5", "--m", "3", "--gamma-bar", "2",
                    "--grid", "0:12:60", "--output", str(out)]) == 0
        _, values = np.loadtxt(out, **CSV)
        assert np.all(np.diff(values) >= 0)
        assert values[0] >= 0 and values[-1] <= 1

    def test_rician_shadowed_far_tail_is_one(self, tmp_path):
        out = tmp_path / "cdf.csv"
        assert run(self.RS + ["--grid", "0:1e6:3", "--output", str(out)]) == 0
        assert np.loadtxt(out, **CSV)[1].tolist() == [0.0, 1.0, 1.0]

    def test_rician_shadowed_huge_snr_builds_no_window(self, tmp_path, monkeypatch):
        # the 31-term window at 0 fits; 5e299 and 1e300 must settle without one
        monkeypatch.setattr(cli.analytic, "MAX_TERMS", 31)
        out = tmp_path / "cdf.csv"
        assert run(self.RS + ["--grid", "0:1e300:3", "--output", str(out)]) == 0
        assert np.loadtxt(out, **CSV)[1].tolist() == [0.0, 1.0, 1.0]


    def test_rician_shadowed_tiny_m_over_k(self, tmp_path):
        # p = m/(m+K) underflows at m = 1e-300, K = 1e30; the cdf is the
        # m -> 0 limit 1 - e^-y at y = 1, 1e5 and 1e10
        out = tmp_path / "cdf.csv"
        assert run(["cdf", "--model", "rician-shadowed", "--k", "1e30", "--m", "1e-300",
                    "--gamma-bar", "1", "--grid", "1e-30:1e-20:3:log",
                    "--output", str(out)]) == 0
        grid, values = np.loadtxt(out, **CSV)
        np.testing.assert_allclose(values, -np.expm1(-(1.0 + 1e30) * grid), rtol=1e-14, atol=0)

    def test_rician_shadowed_integer_m_takes_the_mixture(self, tmp_path):
        # at integer m the Binomial mixture, as for the fdrlos laws; it moves
        # from the negative-binomial series by rounding only
        out = tmp_path / "cdf.csv"
        assert run(["cdf", "--model", "rician-shadowed", "--k", "3", "--m", "3",
                    "--gamma-bar", "2", "--grid", "0.01:40:30:log",
                    "--output", str(out)]) == 0
        grid, values = np.loadtxt(out, **CSV)
        np.testing.assert_allclose(values, analytic.rs_cdf(grid, 3.0, 3, 2.0),
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose(values, analytic._nb_series(grid * 4.0 / 2.0, 3.0, 3),
                                   rtol=1e-13, atol=0)


class TestLargeIntegerM:
    """Integer m past 100 takes the real-m kernels: the density refuses
    m > 1e15, the cdf takes every m."""

    def test_cdf_at_m_1e9(self, tmp_path):
        out = tmp_path / "cdf.csv"
        assert run(["cdf", "--k", "1", "--m", "1e9", "--gamma-bar", "1",
                    "--grid", "0.5:2:3", "--output", str(out)]) == 0
        assert np.all(np.diff(np.loadtxt(out, **CSV)[1]) > 0)

    def test_pdf_at_m_1e9_is_refused(self, tmp_path):
        # the 1F1 window cap: a refusal of the kernel, not of a shared budget
        assert run(["pdf", "--k", "1", "--m", "1e9", "--gamma-bar", "1",
                    "--grid", "0.5:2:3", "--output", str(tmp_path / "x.csv")]) == 3

    @pytest.mark.parametrize("law", ["pdf"])
    def test_m_past_1e15_is_refused(self, law, tmp_path):
        assert run([law, "--k", "1", "--m", "1e20", "--gamma-bar", "1",
                    "--grid", "0.5:2:3", "--output", str(tmp_path / "x.csv")]) == 3

    def test_cdf_past_1e15_is_the_drlos_limit(self, tmp_path):
        # the LoS-power average has no cap on m; at m = 1e20 its O(1/m)
        # correction lies far below eps
        out = tmp_path / "cdf.csv"
        assert run(["cdf", "--k", "1", "--m", "1e20", "--gamma-bar", "1",
                    "--grid", "0.5:2:3", "--output", str(out)]) == 0
        grid, values = np.loadtxt(out, **CSV)
        np.testing.assert_allclose(values, analytic.drlos_cdf_oracle(grid, 1.0, 1.0),
                                   rtol=1e-14, atol=0)


@pytest.mark.parametrize("model, k", [("rician", "1e11"), ("drlos", "1e4")])
def test_nan_of_chndtr_is_a_numeric_failure(model, k, tmp_path, capsys):
    # chndtr gives NaN at noncentrality 2e11: the Rician cdf exits 3 on it;
    # the drlos cdf no longer calls chndtr and answers
    out = tmp_path / "x.csv"
    code = run(["cdf", "--model", model, "--k", k, "--gamma-bar", "1",
                "--grid", "1:2:2", "--output", str(out)])
    if model == "rician":
        assert code == 3
        assert "chndtr returned NaN" in capsys.readouterr().err
    else:
        assert code == 0
        grid, values = np.loadtxt(out, **CSV)
        np.testing.assert_array_equal(values, analytic.drlos_cdf_oracle(grid, 1e4, 1.0))


class TestOpCommand:
    def test_monotone_decreasing_in_mean_snr(self, tmp_path):
        out = tmp_path / "op.csv"
        code = run(["op", "--k", "1", "--m", "3", "--gamma-th-db", "3",
                    "--grid-db", "0:40:41", "--output", str(out)])
        assert code == 0
        _, values = np.loadtxt(out, **CSV)
        assert len(values) == 41
        assert np.all(np.diff(values) < 0)

    def test_asymptote_undefined_at_k_zero(self, tmp_path, capsys):
        code = run(["op", "--k", "0", "--m", "3", "--gamma-th-db", "3",
                    "--grid-db", "0:40:5", "--asymptotic",
                    "--output", str(tmp_path / "x.csv")])
        assert code == 2

    def test_asymptote_has_constant_op_times_gbar(self, tmp_path):
        out = tmp_path / "asym.csv"
        assert run(["op", "--k", "1", "--m", "2", "--gamma-th", "2",
                    "--grid-db", "10:40:7", "--asymptotic",
                    "--output", str(out)]) == 0
        db, values = np.loadtxt(out, **CSV)
        gbars = 10 ** (db / 10.0)
        prod = values * gbars
        np.testing.assert_allclose(prod, prod[0], rtol=1e-12)

    @pytest.mark.parametrize("m", ["1e6", "1e8"])
    def test_asymptote_at_huge_m(self, m, tmp_path):
        # the gain integrand tends to e^(-x - K/x)/x as m -> inf
        out = tmp_path / "asym.csv"
        assert run(["op", "--k", "5", "--m", m, "--gamma-th", "1", "--grid", "1:10:2",
                    "--asymptotic", "--output", str(out)]) == 0
        assert np.all(np.isfinite(np.loadtxt(out, **CSV)[1]))

    def test_asymptote_at_tiny_k(self, tmp_path):
        out = tmp_path / "asym.csv"
        assert run(["op", "--k", "1e-30", "--m", "5", "--gamma-th", "1",
                    "--grid-db", "20:40:3", "--asymptotic", "--output", str(out)]) == 0
        db, values = np.loadtxt(out, **CSV)
        np.testing.assert_allclose(values * 10 ** (db / 10.0), GAIN_TINY_K, rtol=1e-12)

    def test_asymptote_near_underflow(self, tmp_path):
        # a gain near 6e-295, whose unscaled integrand underflows at every node
        out = tmp_path / "asym.csv"
        assert run(["op", "--k", "1.2e5", "--m", "1e4", "--gamma-th", "1",
                    "--grid", "1:10:2", "--asymptotic", "--output", str(out)]) == 0
        assert np.all(np.loadtxt(out, **CSV)[1] > 0)

    @pytest.mark.parametrize("grid", ["--grid=0:10:3", "--grid=-1:10:3",
                                      "--grid-db=0:4000:3"])
    @pytest.mark.parametrize("extra", [[], ["--asymptotic"]])
    def test_rejects_nonpositive_or_infinite_mean_snr(self, grid, extra,
                                                      tmp_path, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("evaluated before the grid was checked")

        for name in ("fdrlos_cdf", "coding_gain"):
            monkeypatch.setattr(cli.analytic, name, must_not_run)
        out = tmp_path / "op.csv"
        code = run(["op", "--k", "1", "--m", "2", "--gamma-th", "1", grid,
                    *extra, "--output", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("route", [
        ["--model", "fdrlos", "--m", "2"],
        ["--model", "fdrlos", "--m", "2", "--oracle"],
        ["--model", "rician-shadowed", "--m", "2"],
        ["--model", "rician-shadowed", "--m", "2.5"],
        ["--model", "drlos"],
        ["--model", "rician"],
    ], ids=["fdrlos", "fdrlos-oracle", "rs-integer-m", "rs-real-m", "drlos",
            "rician"])
    def test_rows_equal_one_point_cdf(self, route, tmp_path):
        op = tmp_path / "op.csv"
        assert run(["op", *route, "--k", "3", "--gamma-th", "2",
                    "--grid-db=-5:30:4", "--output", str(op)]) == 0
        one = tmp_path / "cdf.csv"
        for gbar_db, value in zip(*np.loadtxt(op, **CSV)):
            assert run(["cdf", *route, "--k", "3", f"--gamma-bar-db={gbar_db:.17g}",
                        "--grid", "2:3:2", "--output", str(one)]) == 0
            assert np.loadtxt(one, **CSV)[1][0] == pytest.approx(
                value, rel=1e-9)

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as info:
            run(["op", "--k", "1", "--m", "3", "--grid-db", "0:40:5"])
        assert info.value.code == 2


class TestVariance:
    """``cli._variance``: the population variance summed in blocks."""

    @pytest.mark.parametrize("n", [1, cli._VAR_BLOCK - 1, cli._VAR_BLOCK + 1,
                                   3 * cli._VAR_BLOCK + 7])
    def test_matches_numpy(self, n):
        x = np.random.default_rng(n).gamma(3.0, 2.0, n) + 1e3
        assert cli._variance(x, float(np.mean(x))) == pytest.approx(
            float(np.var(x)), rel=1e-12, abs=0)


class TestSimCommand:
    BASE = ["sim", "--model", "fdrlos", "--k", "5", "--m", "3",
            "--gamma-bar", "2", "--samples", "1000000", "--seed", "42"]

    def test_deterministic_rerun(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(self.BASE + ["--output", str(a)]) == 0
        assert run(self.BASE + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_summary_contents(self, tmp_path):
        out = tmp_path / "sim.txt"
        run(self.BASE + ["--output", str(out)])
        kv = dict(line.split("=", 1) for line in read_rows(str(out)))
        assert kv["model"] == "fdrlos"
        assert kv["n"] == "1000000"
        assert float(kv["mean"]) == pytest.approx(2.0, abs=0.01)
        assert kv["ks_pass"] == "true"
        assert float(kv["ks_statistic"]) < float(kv["ks_threshold"])

    def test_standard_error_and_ks_margin(self, tmp_path):
        out = tmp_path / "sim.txt"
        run(self.BASE + ["--output", str(out)])
        kv = dict(line.split("=", 1) for line in read_rows(str(out)))
        assert list(kv)[-2:] == ["mean_se", "ks_margin"]
        # 17 significant digits round-trip, so the fields agree exactly
        assert float(kv["mean_se"]) == math.sqrt(float(kv["variance"]) / int(kv["n"]))
        assert float(kv["ks_margin"]) == (float(kv["ks_threshold"])
                                          - float(kv["ks_statistic"]))
        assert float(kv["ks_margin"]) > 0

    def test_summary_goes_to_stdout_without_output(self, tmp_path, capsys):
        out = tmp_path / "sim.txt"
        assert run(self.BASE + ["--output", str(out)]) == 0
        capsys.readouterr()
        assert run(self.BASE) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()

    def test_thread_count_invisible_in_output(self, tmp_path):
        a, b = tmp_path / "t1.txt", tmp_path / "t8.txt"
        run(self.BASE + ["--threads", "1", "--output", str(a)])
        run(self.BASE + ["--threads", "8", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_raw_samples_dump(self, tmp_path):
        out = tmp_path / "sim.txt"
        raw = tmp_path / "raw.csv"
        run(["sim", "--k", "1", "--m", "1", "--gamma-bar", "1",
             "--samples", "500", "--seed", "7",
             "--output", str(out), "--raw-output", str(raw)])
        rows = read_rows(str(raw))
        assert rows[0] == "value"
        assert len(rows) == 501
        assert all(float(r) >= 0 for r in rows[1:])

    def test_rel_tol_checked_before_sampling(self, tmp_path, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("sampled before --rel-tol was checked")

        monkeypatch.setattr(cli, "sample_snr", must_not_run)
        out = tmp_path / "sim.txt"
        assert run(self.BASE + ["--rel-tol", "5", "--output", str(out)]) == 2
        assert not out.exists()

    def test_threads_below_one_rejected(self, tmp_path, capsys):
        out = tmp_path / "sim.txt"
        assert run(self.BASE + ["--threads", "-3", "--output", str(out)]) == 2
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_samples_rejected(self, tmp_path):
        code = run(["sim", "--k", "1", "--m", "1", "--gamma-bar", "1",
                    "--samples", "0", "--output", str(tmp_path / "x.txt")])
        assert code == 2


class TestFigureCommand:
    def test_fig5_file_set(self, tmp_path):
        assert cmd_figure("fig5", str(tmp_path)) == 0
        for m in (1, 3, 5, 10):
            k_grid, fd = np.loadtxt(tmp_path / f"fig5_fdrlos_op_vs_k_m{m}.csv", **CSV)
            _, rs = np.loadtxt(tmp_path / f"fig5_rs_op_vs_k_m{m}.csv", **CSV)
            assert len(k_grid) == 81
            assert k_grid[0] == 0.0 and k_grid[-1] == 20.0
            assert np.all((fd >= 0) & (fd <= 1))
            assert np.all((rs >= 0) & (rs <= 1))

    def test_fig1_with_reduced_sampling(self, tmp_path):
        assert cmd_figure("fig1", str(tmp_path), mc_samples=2000) == 0
        names = sorted(os.listdir(tmp_path))
        for m in (1, 2, 3, 5, 15):
            assert f"fig1_fdrlos_pdf_m{m}.csv" in names
            assert f"fig1_mc_hist_m{m}.csv" in names
        assert "fig1_drlos_pdf_limit.csv" in names
        _, heights = np.loadtxt(tmp_path / "fig1_mc_hist_m3.csv", **CSV)
        assert float(np.sum(heights) * 0.1) <= 1.0 + 1e-12

    @pytest.mark.parametrize("name", ["fig3", "fig4"])
    def test_mc_markers_fall_with_mean_snr(self, name, tmp_path):
        # one draw per curve read at gamma_th / gamma_bar: the markers cannot
        # rise with the mean SNR, whatever the sample count
        assert cmd_figure(name, str(tmp_path), mc_samples=500) == 0
        for path in sorted(tmp_path.glob(f"{name}_mc_op_m*.csv")):
            _, markers = np.loadtxt(path, **CSV)
            assert markers[0] > 0.0
            assert np.all(np.diff(markers) <= 0.0), path.name

    def test_env_var_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FDRLOS_OUTPUT_DIR", str(tmp_path / "envdir"))
        import importlib

        from fdrlos import cli as cli_mod
        parser = cli_mod._build_parser()
        args = parser.parse_args(["figure", "fig5"])
        assert args.output_dir == str(tmp_path / "envdir")


def test_real_m_needs_no_oracle_flag(tmp_path):
    # every fdrlos command takes a real m; where --oracle applies it gives the
    # same bytes, because at real m both routes average the same series.
    # ``sim`` tabulates its cdf at no more points than its 200 samples
    base = ["--k", "1", "--m", "2.5"]
    curve = ["--gamma-bar", "1", "--grid", "0.5:2:3"]
    op = ["--gamma-th", "2", "--grid-db", "0:20:3"]
    for name, argv in [("cdf", ["cdf", *base, *curve]), ("pdf", ["pdf", *base, *curve]),
                       ("op", ["op", *base, *op]),
                       ("asym", ["op", *base, *op, "--asymptotic"]),
                       ("sim", ["sim", *base, "--gamma-bar", "1", "--samples", "200"])]:
        plain, oracle = tmp_path / f"{name}.txt", tmp_path / f"{name}_oracle.txt"
        assert run(argv + ["--output", str(plain)]) == 0
        if name != "asym":
            assert run(argv + ["--oracle", "--output", str(oracle)]) == 0
            assert plain.read_bytes() == oracle.read_bytes()
    assert "ks_pass=true" in read_rows(str(tmp_path / "sim.txt"))


# The boundary sweep: every numeric flag of every evaluating command set to
# inf and to NaN, for each model; the other flags keep these valid values
SWEEP_BASE = {"--k": "2", "--m": "2", "--gamma-bar": "2", "--gamma-th": "2",
              "--samples": "2000"}
SWEEP_COMMANDS = [["pdf", "--grid", "0.5:4:4"], ["cdf", "--grid", "0.5:4:4"],
                  ["op", "--grid-db", "0:20:3"],
                  ["op", "--grid-db", "0:20:3", "--asymptotic"], ["sim"]]


def numeric_flags(subcommand):
    """The flags of ``subcommand`` that take a float or an int."""
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [a.option_strings[0] for a in sub.choices[subcommand]._actions
            if a.type in (float, int)]


def sweep_argvs(out):
    for head in SWEEP_COMMANDS:
        flags = numeric_flags(head[0])
        base = {f: v for f, v in SWEEP_BASE.items() if f in flags}
        for model in ("fdrlos", "rician-shadowed", "drlos", "rician"):
            for flag in flags:
                for value in ("inf", "nan"):
                    # a dB flag stands in for its linear twin
                    args = {f: v for f, v in base.items()
                            if f != flag.removesuffix("-db")}
                    args[flag] = value
                    yield head + ["--model", model, "--output", out] + [
                        t for f, v in args.items() for t in (f, v)]


def numbers(text):
    """Every token of ``text`` that parses as a float (CSV cells, sim values)."""
    out = []
    for token in re.split(r"[,=\s]+", text):
        try:
            out.append(float(token))
        except ValueError:
            pass
    return out


def test_boundary_sweep_exits_cleanly(tmp_path, capsys):
    # every run ends in 0 with finite output or in 2 with one error line;
    # never in an exception, a numeric failure (3) or a traceback (1)
    out = str(tmp_path / "out.txt")
    bad = []
    for argv in sweep_argvs(out):
        if os.path.exists(out):
            os.remove(out)
        try:
            code = main(argv)
        except SystemExit as exc:        # argparse refuses inf/nan ints
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        if code == 2:
            ok = sum("error:" in line for line in err.splitlines()) == 1
        elif code == 0:
            with open(out, encoding="utf-8") as fh:
                values = numbers(fh.read())
            ok = bool(values) and bool(np.all(np.isfinite(values)))
        else:
            ok = False
        if not ok:
            bad.append((" ".join(argv), code))
    assert bad == []


def run_python(code):
    """stdout of ``python -c code`` with this checkout's package importable."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fdrlos.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_cli_import_leaves_out_scipy_stats():
    # scipy.interpolate too: only ``sim`` tabulates a cdf, and imports it then
    code = ("import sys, fdrlos.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.stats', 'scipy.interpolate'))))")
    assert run_python(code).strip() == "[]"


def test_public_api_resolves():
    missing = [name for name in fdrlos.__all__ if not hasattr(fdrlos, name)]
    assert missing == []
    code = ("from fdrlos import *; import fdrlos; "
            "print(all(name in globals() for name in fdrlos.__all__))")
    assert run_python(code).strip() == "True"


def test_public_names_are_distinct_objects():
    # each law has one public name: no alias re-enters the package API
    assert len({id(getattr(fdrlos, name)) for name in fdrlos.__all__}) == len(fdrlos.__all__)
