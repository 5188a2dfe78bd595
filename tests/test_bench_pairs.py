"""`tools/bench_pairs.py`'s summary: the gain rule, the regression flags and
the failed-operation shares that a comparison of two revisions is judged by."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load()
BETTER = {"windows_per_s": "higher", "peak_rss_mb": "lower"}
BOUNDS = {"windows_per_s": 0.25, "peak_rss_mb": 0.1}


def _run(rate, rss, failed=0, attempted=100, reported=None):
    return {"failed": failed, "attempted": attempted,
            "metrics": {"windows_per_s": rate, "peak_rss_mb": rss},
            "reported": reported or {}}


def _pairs(parent_rates, change_rates, parent_failed=(), change_failed=()):
    parent_failed = list(parent_failed) or [0] * len(parent_rates)
    change_failed = list(change_failed) or [0] * len(change_rates)
    return [{"parent": _run(a, 80.0, fa), "change": _run(b, 80.0, fb)}
            for a, b, fa, fb in zip(parent_rates, change_rates, parent_failed, change_failed)]


def test_a_clear_gain_meets_the_gain_rule_and_trips_no_gate():
    parent = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 100.4, 99.9, 100.3]
    summary = bench_pairs.summarize(_pairs(parent, [r * 1.15 for r in parent]), BETTER, BOUNDS)
    rate = summary["metrics"]["windows_per_s"]
    assert rate["change_wins"] == 10 and rate["gain_rule_holds"]
    assert not rate["worse_beyond_bound"] and not rate["unresolved"]
    assert summary["metrics"]["peak_rss_mb"]["change_wins"] == 0  # ties count for neither
    assert summary["operations"] == {
        "parent": {"failed": 0, "attempted": 1000, "share": 0.0},
        "change": {"failed": 0, "attempted": 1000, "share": 0.0},
        "more_failures": False,
    }


def test_eight_wins_in_ten_do_not_meet_the_gain_rule():
    parent = [100.0] * 10
    change = [120.0] * 8 + [90.0] * 2
    rate = bench_pairs.summarize(_pairs(parent, change), BETTER, BOUNDS)["metrics"]["windows_per_s"]
    assert rate["change_wins"] == 8 and rate["parent_wins"] == 2
    assert not rate["gain_rule_holds"]


def test_a_drop_beyond_the_bound_is_flagged():
    parent = [100.0] * 4
    rate = bench_pairs.summarize(_pairs(parent, [70.0] * 4), BETTER, BOUNDS)["metrics"]
    assert rate["windows_per_s"]["worse_beyond_bound"]


@pytest.mark.parametrize("parent_failed, change_failed, more", [
    ([0, 0, 0], [0, 1, 0], True),
    ([2, 0, 0], [0, 1, 1], False),
    ([1, 0, 0], [0, 0, 0], False),
])
def test_more_failures_compares_each_sides_failed_share(parent_failed, change_failed, more):
    pairs = _pairs([100.0] * 3, [110.0] * 3, parent_failed, change_failed)
    ops = bench_pairs.summarize(pairs, BETTER, BOUNDS)["operations"]
    assert ops["parent"]["failed"] == sum(parent_failed)
    assert ops["change"]["failed"] == sum(change_failed)
    assert ops["change"]["share"] == pytest.approx(sum(change_failed) / 300)
    assert ops["more_failures"] is more


def test_a_share_counts_attempts_not_runs():
    # the change fails as often as the parent, but on twice the operations
    pairs = [{"parent": _run(100.0, 80.0, failed=1, attempted=100),
              "change": _run(110.0, 80.0, failed=1, attempted=200)}]
    ops = bench_pairs.summarize(pairs, BETTER, BOUNDS)["operations"]
    assert ops["change"]["share"] == 0.005 and not ops["more_failures"]


def test_report_lines_are_read_by_name():
    lines = [
        "pass 0: setup 0.0123 s, wall 1.000 s, 10 windows, 10 timed operations, failed 0/10",
        "report: slowdown = 1.0831 1 (median over operations; corrected times are divided by it)",
        "report: uncorrected.windows_per_s = 4683.2 1/s (raw times)",
        "report: error_rate = 0 1 (20 operations)",
        'environment: {"nproc": 2}',
    ]
    assert bench_pairs.reported(lines) == {
        "slowdown": 1.0831, "uncorrected.windows_per_s": 4683.2, "error_rate": 0.0}


def test_each_sides_median_slowdown_is_summarized():
    pairs = [{"parent": _run(100.0, 80.0, reported={"slowdown": a}),
              "change": _run(110.0, 80.0, reported={"slowdown": b})}
             for a, b in [(1.0, 1.3), (1.2, 1.1), (1.1, 1.2)]]
    summary = bench_pairs.summarize(pairs, BETTER, BOUNDS)
    assert summary["reported"] == {"slowdown": {"parent": 1.1, "change": 1.2}}


def test_a_figure_one_side_never_reported_has_no_median():
    pairs = [{"parent": _run(100.0, 80.0), "change": _run(110.0, 80.0, reported={"wall_s": 2.0})}]
    summary = bench_pairs.summarize(pairs, BETTER, BOUNDS)
    assert summary["reported"] == {"wall_s": {"parent": None, "change": 2.0}}


def test_the_reference_line_puts_both_sides_uncorrected_rate_beside_their_slowdown():
    def run(rate, slowdown, uncorrected, setup):
        return _run(rate, 80.0, reported={"slowdown": slowdown,
                                          "uncorrected.windows_per_s": uncorrected,
                                          "uncorrected.setup_s": setup})

    pairs = [{"parent": run(100.0, a, c, e), "change": run(110.0, b, d, f)}
             for a, b, c, d, e, f in [(1.0, 1.3, 4000.0, 4400.0, 0.006, 0.005),
                                      (1.2, 1.1, 4100.0, 4300.0, 0.007, 0.004),
                                      (1.1, 1.2, 4200.0, 4500.0, 0.008, 0.006)]]
    figures = bench_pairs.summarize(pairs, BETTER, BOUNDS)["reported"]
    assert bench_pairs.reference_line("fed2-train", figures) == (
        "fed2-train         median slowdown: parent 1.1  change 1.2  "
        "median uncorrected.windows_per_s: parent 4100  change 4400  "
        "median uncorrected.setup_s: parent 0.007  change 0.005")


def test_the_reference_line_leaves_out_a_figure_one_side_lacks():
    figures = {"slowdown": {"parent": 1.1, "change": 1.2},
               "uncorrected.windows_per_s": {"parent": None, "change": 4400.0}}
    assert bench_pairs.reference_line("u", figures) == (
        "u                  median slowdown: parent 1.1  change 1.2")
    assert bench_pairs.reference_line("u", {}) is None


def test_every_finished_pair_is_on_disk_when_a_later_run_stops_the_tool(tmp_path, monkeypatch):
    calls = []

    def run_once(tree, workload, seed, seconds, trace):
        calls.append((workload, seed))
        if len(calls) == 3:  # the second pair's first run prints no result line
            raise SystemExit(f"{workload} seed {seed}: no result")
        return {"exit_code": 0, "correct": True, "attempted": 10, "failed": 0,
                "metrics": {"windows_per_s": 100.0 + len(calls)}, "reported": {},
                "environment": None}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "")
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", "HEAD", "--workload", "fed2-train", "--seeds", "1", "2",
                          "--seconds", "1", "--out", str(out)])
    record = json.loads(out.read_text())
    assert [(p["seed"], p["first"]) for p in record["pairs"]] == [(1, "parent")]
    pair = record["pairs"][0]
    assert pair["parent"]["metrics"] == {"windows_per_s": 101.0}
    assert pair["change"]["metrics"] == {"windows_per_s": 102.0}
    assert record["summary"] == {}
