"""Every frozen reference value of the tests is a table that
``scripts/make_goldens.py`` prints, under the same name, so that none is a
number nobody can regenerate, and every table the script prints is frozen in
a test, so that none is made for nothing."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from test_frontier import PDF_M_TO_0

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "make_goldens.py"
FROZEN_IN = ("test_analytic.py", "test_specfun.py", "test_frontier.py")
#: a frozen value has more significant digits than any tolerance is written with
MIN_DIGITS = 10


def _is_golden(node):
    """A float literal written to ``MIN_DIGITS`` digits or more."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    if not (isinstance(node, ast.Constant) and isinstance(node.value, float)):
        return False
    mantissa = repr(node.value).split("e")[0].replace(".", "").lstrip("0")
    return len(mantissa) >= MIN_DIGITS


def frozen_names(path):
    """The module-level names bound to a golden, or to a dict of them."""
    names = []
    for stmt in ast.parse(path.read_text()).body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            continue
        value = stmt.value
        if _is_golden(value) or (isinstance(value, ast.Dict)
                                 and any(_is_golden(v) for v in value.values)):
            names.append(stmt.targets[0].id)
    return names


def load_script():
    spec = importlib.util.spec_from_file_location("make_goldens", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def printed_titles():
    """The titles of the tables ``GOLDENS`` of the script prints."""
    return [entry[0] for entry in load_script().GOLDENS if not isinstance(entry, str)]


@pytest.mark.parametrize("test_file", FROZEN_IN)
def test_every_golden_is_printed_by_the_script(test_file):
    titles = printed_titles()
    names = frozen_names(ROOT / "tests" / test_file)
    assert names
    missing = [name for name in names if name not in titles]
    assert not missing, f"{test_file} freezes values no table prints: {missing}"


def test_every_printed_table_is_frozen_by_a_test():
    # each table is frozen once, and each frozen value has one table
    frozen = [name for test_file in FROZEN_IN
              for name in frozen_names(ROOT / "tests" / test_file)]
    titles = printed_titles()
    assert titles
    assert sorted(frozen) == sorted(titles)


def test_a_named_table_is_printed_alone():
    # a cheap table, which prints its frozen value
    proc = subprocess.run([sys.executable, str(SCRIPT), "PDF_M_TO_0"], cwd=ROOT,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == f"PDF_M_TO_0 = {PDF_M_TO_0!r}\n"


def test_without_titles_every_table_and_comment_is_printed(monkeypatch, capsys):
    script = load_script()
    monkeypatch.setattr(script, "GOLDENS", ["# first", ("A", float, (1.5,)),
                                            "# second", ("B", float, (2.5,))])
    script.main([])
    assert capsys.readouterr().out == "# first\nA = 1.5\n# second\nB = 2.5\n"
    script.main(["B"])
    assert capsys.readouterr().out == "B = 2.5\n"


def test_an_unknown_title_exits_with_a_usage_line():
    with pytest.raises(SystemExit) as info:
        load_script().main(["PDF_M_TO_0", "NO_SUCH_TABLE"])
    assert str(info.value.code).startswith("usage: python3 scripts/make_goldens.py [TITLE ...]")
    assert "NO_SUCH_TABLE" in str(info.value.code)
