"""Every frozen reference value of the tests is a table that
``scripts/make_goldens.py`` prints, under the same name, so that none is a
number nobody can regenerate, and every table the script prints is frozen in
a test, so that none is made for nothing."""

import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import pytest

from test_frontier import PDF_M_TO_0

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "make_goldens.py"
#: tables the script prints and checks in about a second and a half in all
CHEAP = ["GIG_NEG2_02_15", "HYP1F1_3_1_07", "U_2_1_05", "E1", "UPPER_GAMMA", "HYP1F1_LARGE",
         "SCALED_LOG_HYP1F1", "STIRLERR", "LOG_POISSON_PMF", "LOG_NEGBIN_PMF", "PDF_M_TO_0",
         "CDF_M_TO_0", "CDF_K0_AT_1E_10", "CDF_K0_AT_1E_11", "PDF_K0_AT_1E_100",
         "GAIN_M_TO_INF", "CODING_GAIN_TINY_M", "RS_PDF_GOLDENS", "RS_CDF_2_4_2_15",
         "GAIN_TINY_K"]


def load_script():
    spec = importlib.util.spec_from_file_location("make_goldens", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


FROZEN_IN = load_script().FROZEN_IN


def frozen_names(test_file):
    """The names ``test_file`` binds to a golden, or to a dict of them."""
    return list(load_script().frozen_tables([test_file]))


def printed_titles():
    """The titles of the tables ``GOLDENS`` of the script prints."""
    return [entry[0] for entry in load_script().GOLDENS if not isinstance(entry, str)]


@pytest.mark.parametrize("test_file", FROZEN_IN)
def test_every_golden_is_printed_by_the_script(test_file):
    titles = printed_titles()
    names = frozen_names(test_file)
    assert names
    missing = [name for name in names if name not in titles]
    assert not missing, f"{test_file} freezes values no table prints: {missing}"


def test_every_printed_table_is_frozen_by_a_test():
    # each table is frozen once, and each frozen value has one table
    frozen = [name for test_file in FROZEN_IN for name in frozen_names(test_file)]
    titles = printed_titles()
    assert titles
    assert sorted(frozen) == sorted(titles)


def test_a_named_table_is_printed_alone():
    # the named tables, no other and no comment, each equal to its frozen copy
    proc = subprocess.run([sys.executable, str(SCRIPT), *CHEAP], cwd=ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    printed = [line.split(" = ")[0] for line in lines if line[0].isalpha()]
    assert sorted(printed) == sorted(CHEAP)
    assert f"PDF_M_TO_0 = {PDF_M_TO_0!r}" in lines


def test_a_frozen_value_off_by_one_digit_fails_the_run(monkeypatch, capsys):
    script = load_script()
    frozen = script.frozen_tables()
    frozen["E1"][1.0] = math.nextafter(frozen["E1"][1.0], math.inf)
    monkeypatch.setattr(script, "frozen_tables", lambda: frozen)
    with pytest.raises(SystemExit) as info:
        script.main(["E1", "PDF_M_TO_0"])
    assert info.value.code == 1
    out, err = capsys.readouterr()
    assert "E1 = {" in out and "PDF_M_TO_0 = " in out     # the run still finishes
    assert err.startswith("E1 at 1.0: prints 0.21938393439552029, frozen 0.2193839343955203 ")
    assert err.count("\n") == 1
    # a printed table that no test freezes fails as well
    monkeypatch.setattr(script, "frozen_tables", dict)
    with pytest.raises(SystemExit) as info:
        script.main(["PDF_M_TO_0"])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("PDF_M_TO_0: prints 0.16956709599360598, frozen None ")


def test_without_titles_every_table_and_comment_is_printed(monkeypatch, capsys):
    script = load_script()
    monkeypatch.setattr(script, "GOLDENS", ["# first", ("A", float, (1.5,)),
                                            "# second", ("B", float, (2.5,))])
    monkeypatch.setattr(script, "frozen_tables", lambda: {"A": 1.5, "B": 2.5})
    script.main([])
    assert capsys.readouterr().out == "# first\nA = 1.5\n# second\nB = 2.5\n"
    script.main(["B"])
    assert capsys.readouterr().out == "B = 2.5\n"


def test_an_unknown_title_exits_with_a_usage_line():
    with pytest.raises(SystemExit) as info:
        load_script().main(["PDF_M_TO_0", "NO_SUCH_TABLE"])
    assert str(info.value.code).startswith("usage: python3 scripts/make_goldens.py [TITLE ...]")
    assert "NO_SUCH_TABLE" in str(info.value.code)
