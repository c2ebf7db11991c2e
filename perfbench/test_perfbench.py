"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench
"""

import subprocess
import sys
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent


def test_self_time_subtracts_nested_children_once():
    # cli.main [0, 10] > quad [1, 9] > integrand [2, 8] > quad [3, 7]
    names = ["cli.main", "specfun.quad", "analytic.integrand"]
    spans = [[0, 0.0, 10.0, -1], [1, 1.0, 9.0, 0], [2, 2.0, 8.0, 1], [1, 3.0, 7.0, 2]]
    times = {names[k]: v for k, v in tracing.span_times(spans).items()}
    assert times["cli.main"] == [1, 10.0, 2.0]
    assert times["specfun.quad"] == [2, 12.0, 6.0]   # inclusive double-counts, self does not
    assert times["analytic.integrand"] == [1, 6.0, 2.0]
    assert sum(v[2] for v in times.values()) == 10.0


def test_uninstall_puts_back_every_wrapped_function():
    sys.path.insert(0, str(HERE.parent / "src"))
    from fdrlos import analytic, cli, empirics, models, specfun
    modules = {"cli": cli, "analytic": analytic, "specfun": specfun, "models": models,
               "empirics": empirics}
    before = {(k, n): getattr(m, n) for k, m in modules.items() for n in dir(m)}
    write_csv = analytic.Curve.write_csv
    saved = tracing.install(tracing.Tracer(), modules)
    assert analytic.fdrlos_cdf is not before["analytic", "fdrlos_cdf"]
    tracing.uninstall(saved)
    after = {(k, n): getattr(m, n) for k, m in modules.items() for n in dir(m)}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert analytic.Curve.write_csv is write_csv


def test_self_check_reports_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--self-check"],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
