"""The benchmark script ``scripts/bench.py``: its verdict on one metric, its
frontier counts and its comparison of two committed summaries.  Loaded from its file, as
``test_tracing_names.py`` loads the tracer; no test starts a subprocess."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_script", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


bench = load_bench()


def side(*values):
    """A summary of ``values`` as ``bench.summary`` writes it."""
    return bench.summary(list(values))


# a tight side: quartiles 1% apart; a wide one: 40% apart
TIGHT = side(0.99, 1.0, 1.0, 1.0, 1.01)
WIDE = side(0.8, 0.8, 1.0, 1.2, 1.2)


@pytest.mark.parametrize("better, sign", [("lower", 1.0), ("higher", -1.0)])
class TestVerdict:
    def test_no_change_is_ok(self, better, sign):
        assert bench.verdict(TIGHT, TIGHT, better, 0.1) == (0.0, "ok")

    def test_past_the_bound_is_worse(self, better, sign):
        worse_b = side(*(1.0 + sign * d for d in (0.19, 0.2, 0.2, 0.2, 0.21)))
        share, verdict = bench.verdict(TIGHT, worse_b, better, 0.1)
        assert verdict == "worse"
        assert share == pytest.approx(0.2)

    def test_within_the_bound_is_ok(self, better, sign):
        near = side(*(1.0 + sign * d for d in (0.04, 0.05, 0.05, 0.05, 0.06)))
        assert bench.verdict(TIGHT, near, better, 0.1)[1] == "ok"

    def test_a_wide_spread_is_unresolved(self, better, sign):
        # either side's quartiles may spread past the bound
        assert bench.verdict(WIDE, TIGHT, better, 0.1)[1] == "unresolved"
        assert bench.verdict(TIGHT, WIDE, better, 0.1)[1] == "unresolved"

    def test_a_wide_spread_that_b_beats_everywhere_is_ok(self, better, sign):
        # every run of B better than every run of A resolves any spread
        b = side(*(1.0 - sign * d for d in (0.25, 0.3, 0.4, 0.5, 0.55)))
        share, verdict = bench.verdict(WIDE, b, better, 0.1)
        assert verdict == "ok"
        assert share < 0


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_a_file_compared_with_itself_reports_no_change(path, capsys):
    assert bench.compare(path, path) == 0
    out = capsys.readouterr().out
    assert "worse by   +0.0%" in out
    # a wide spread may leave a metric unresolved, but none is worse and no
    # per-layer count moves
    assert ": worse" not in out and "count " not in out


def test_the_recorded_comparison_of_the_1f1_kernel_change_holds(capsys):
    assert bench.compare(ROOT / "BENCH_ecd84b7.json", ROOT / "BENCH_kummer-k0-term.json") == 0
    assert ": worse" not in capsys.readouterr().out


def test_a_known_gap_added_raises_the_rows_met_not_the_answers():
    rows = [{"name": "mended", "status": "answers", "met": True},
            {"name": "gap", "status": "refuses", "met": True}]
    assert bench.frontier_counts(rows) == {"frontier_met": 2, "frontier_answers": 1}
    rows.append({"name": "new-gap", "status": "refuses", "met": True})
    assert bench.frontier_counts(rows) == {"frontier_met": 3, "frontier_answers": 1}
    # a row that answers where it should refuse is an answer that misses its want
    rows.append({"name": "answers-a-gap", "status": "answers", "met": False})
    assert bench.frontier_counts(rows) == {"frontier_met": 3, "frontier_answers": 2}
    # a table without ``judge`` records no want met
    assert bench.frontier_counts([{"name": "old", "status": "answers", "met": None}]) == {
        "frontier_met": None, "frontier_answers": 1}


def test_compare_prints_both_frontier_counts(tmp_path, capsys):
    # A is a file from before rows recorded ``met``
    record = json.loads((ROOT / "BENCH_second-branch.json").read_text())
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(record))
    record["frontier"] = [dict(row, met=True) for row in record["frontier"]] + [
        {"name": "gap", "status": "refuses", "met": True, "s": 0.0}]
    new.write_text(json.dumps(record))
    assert bench.compare(old, new) == 0
    out = capsys.readouterr().out
    assert "\nfrontier_met no record -> 26 of 26\n" in out
    assert "\nfrontier_answers 16 of 25 -> 16 of 26\n" in out
    assert "\n  gap: no row -> refuses\n" in out
