"""The benchmark's tracer (``perfbench/tracing.py``) wraps the package's public
calls by name.  Tier-1 collects only ``tests/``, so this is where a renamed or
deleted traced name fails."""

import importlib.util
from pathlib import Path

import numpy as np

from fdrlos import analytic, cli, empirics, models, specfun

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_and_uninstalls(tmp_path):
    tracing = load_tracing()
    modules = {"cli": cli, "analytic": analytic, "specfun": specfun,
               "models": models, "empirics": empirics}
    tracer = tracing.Tracer()
    tracer.unit()
    saved = tracing.install(tracer, modules)
    try:
        assert all(getattr(owner, name) is not original for owner, name, original in saved)
        # the tracer reads the points parameter of tabulated_cdf by name
        empirics.tabulated_cdf(lambda g: 1.0 - np.exp(-g), 0.1, 1.0, 8)
        assert tracer.counts["empirics.tabulated_cdf.points"] == 8
        # the package reaches the quadrature, the 1F1 and the public laws
        # through the module attributes the tracer replaces
        out = str(tmp_path / "law.csv")
        assert cli.main(["cdf", "--k", "3", "--m", "2", "--gamma-bar", "1",
                         "--grid", "0.5:2:4", "--output", out]) == 0
        assert cli.main(["pdf", "--k", "3", "--m", "2.5", "--gamma-bar", "1",
                         "--grid", "0.5:2:4", "--output", out]) == 0
        for key in ("analytic.fdrlos_cdf.points", "specfun.quad_calls",
                    "specfun.log_kummer_1f1.values"):
            assert tracer.counts[key] > 0, key
    finally:
        tracing.uninstall(saved)
    assert all(getattr(owner, name) is original for owner, name, original in saved)
