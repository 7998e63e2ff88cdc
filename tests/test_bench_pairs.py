"""The pair verdicts and traced summaries of tools/bench_pairs.py on hand-made
runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
OPS = {"name": "ops", "unit": "count", "better": "higher", "bound": 0.05}


def metrics(spec, parent, change):
    """_metrics over runs carrying one metric, one value per run."""
    runs = {side: [{"metrics": {spec["name"]: {"value": v}}} for v in values]
            for side, values in (("parent", parent), ("change", change))}
    return bench_pairs._metrics(runs, [spec])[spec["name"]]


PARENT = [3.0, 3.1, 3.2, 3.05, 3.15, 3.0, 3.1, 3.2, 3.05, 3.15]  # IQR 0.1 around 3.1


@pytest.mark.parametrize(
    "spec, parent, change, verdict",
    [
        # 10/10 won, medians 0.6 apart against an IQR of 0.1
        (WALL, PARENT, [v - 0.6 for v in PARENT], "gain"),
        # 9/10 won is enough
        (WALL, PARENT, [v - 0.6 for v in PARENT[:9]] + [3.3], "gain"),
        # 8/10 won is not, though the medians are far apart
        (WALL, PARENT, [v - 0.6 for v in PARENT[:8]] + [3.3, 3.3], "within-bound"),
        # 4/4 won: too few pairs to claim a gain
        (WALL, PARENT[:4], [v - 0.6 for v in PARENT[:4]], "within-bound"),
        # 10/10 won by less than the parent's IQR
        (WALL, PARENT, [v - 0.01 for v in PARENT], "within-bound"),
        # median 30% above the parent's, bound 25%
        (WALL, PARENT, [v * 1.3 for v in PARENT], "worse"),
        # 20% above: inside the bound
        (WALL, PARENT, [v * 1.2 for v in PARENT], "within-bound"),
        # the parent's own spread (IQR 1.75 on a median of 3.25) exceeds the bound
        (WALL, [2.0, 3.0, 4.0, 5.0, 2.5, 3.5, 4.5, 1.5], [3.4] * 8, "unresolved"),
        # ... unless every change run beats every parent run
        (WALL, [2.0, 3.0, 4.0, 5.0, 2.5, 3.5, 4.5, 1.5], [1.0] * 8, "within-bound"),
        # higher is better: fewer operations by more than 5% is worse
        (OPS, [100] * 10, [90] * 10, "worse"),
        (OPS, [100] * 10, [100] * 10, "within-bound"),
        (OPS, [100, 101] * 5, [110, 111] * 5, "gain"),
    ],
    ids=["gain", "gain-9-of-10", "8-of-10", "4-pairs", "inside-iqr", "worse",
         "inside-bound", "unresolved", "every-run-better", "ops-worse", "ops-equal",
         "ops-gain"],
)
def test_verdict(spec, parent, change, verdict):
    assert metrics(spec, parent, change)["verdict"] == verdict


def test_traced_runs_alternate_and_summarise():
    """Three traced runs per side, the parent first on the first and third;
    each per-layer metric keeps its median, min and max, and a metric that
    one run lacks is left out."""
    assert [bench_pairs._order(i)[0] for i in range(bench_pairs.TRACED_RUNS)] == [
        "parent", "change", "parent"]
    runs = [{"correct": True, "failed": f, "attempted": 10,
             "metrics": {"distance.exact.s": {"value": s}, "distance.exact.rows": {"value": 7}}}
            for f, s in ((0, 3.0), (1, 1.0), (0, 2.5))]
    del runs[1]["metrics"]["distance.exact.rows"]
    summary = bench_pairs._traced(runs)
    assert summary["metrics"] == {
        "distance.exact.s": {"median": 2.5, "min": 1.0, "max": 3.0, "runs": [3.0, 1.0, 2.5]}}
    assert (summary["correct"], summary["failed"], summary["attempted"]) == (True, 1, 30)


def test_src_lines_counts_each_module_and_the_total(tmp_path):
    package = tmp_path / "src" / "skewqc"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\nz = 3\n")
    (package / "b.py").write_text("import os\n\npass")  # no final newline
    (package / "notes.txt").write_text("not a module\n")
    assert bench_pairs._src_lines(tmp_path) == {"modules": {"a.py": 3, "b.py": 3}, "total": 6}


def test_fail_share_worse_when_the_change_fails_a_larger_share():
    """fail_share is failed / attempted over a side's runs; the workload is
    flagged only when the change's share is strictly larger."""
    def runs(parent, change):
        return {side: [{"correct": not f, "failed": f, "attempted": a} for f, a in counts]
                for side, counts in (("parent", parent), ("change", change))}

    checks = bench_pairs._side_checks(runs([(2, 70), (2, 70)], [(2, 70), (3, 70)]))
    assert checks["parent_checks"]["fail_share"] == pytest.approx(4 / 140)
    assert checks["change_checks"]["fail_share"] == pytest.approx(5 / 140)
    assert checks["fail_share_worse"] is True
    assert bench_pairs._side_checks(runs([(2, 70)], [(2, 70)]))["fail_share_worse"] is False
    # the same failures over more operations is a smaller share
    assert bench_pairs._side_checks(runs([(2, 70)], [(2, 80)]))["fail_share_worse"] is False
    assert bench_pairs._side_checks(runs([(0, 0)], [(0, 0)]))["change_checks"]["fail_share"] == 0.0
