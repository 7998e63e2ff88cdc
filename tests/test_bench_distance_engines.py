"""The side loader, the code groups and the timed pass of
tools/bench_distance_engines.py on this repository's tree."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import skewqc

ROOT = Path(__file__).resolve().parents[1]


def _load_tool():
    """tools/bench_distance_engines.py, which imports its loader from the
    tools/bench_ring_ops.py beside it."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_distance_engines", ROOT / "tools" / "bench_distance_engines.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "tools"))
    return module


bench_distance_engines = _load_tool()


def test_sides_import_their_own_skewqc_and_agree_on_every_group():
    """Two loads of one tree, as for --parent and --change: each side gets
    its own skewqc and builds its own codes, and both sides' passes agree
    on (d, exact), and on the codewords weighed where both ran BZ, over a
    slice of every group.  sys.modules and sys.path are restored
    afterwards, so later tests keep the skewqc they imported.  The groups
    are the five campaigns and the 26 exact catalog rows, and the first 8
    catalog rows take the brute scan once (k = 9) and BZ otherwise."""
    modules, path = dict(sys.modules), list(sys.path)
    try:
        sides = [bench_distance_engines.import_tree(ROOT, "skewqc")[0] for _ in range(2)]
        groups = [bench_distance_engines.groups(side) for side in sides]
    finally:
        for name in set(sys.modules) - set(modules):
            del sys.modules[name]
        sys.modules.update(modules)
        sys.path[:] = path
    assert sys.modules["skewqc"] is skewqc
    assert sides[0] is not sides[1] and skewqc not in sides
    assert list(groups[0]) == [f"campaign seed {s}" for s in range(3, 8)] + ["catalog exact rows"]
    assert len(groups[0]["catalog exact rows"]) == 26
    for name in groups[0]:
        passes = [bench_distance_engines.run_group(side, g[name][:8])[1]
                  for side, g in zip(sides, groups)]
        found = [bench_distance_engines.answers(reports) for reports in passes]
        assert found[0] == found[1] and all(exact for _, exact in found[0])
        assert not bench_distance_engines.bz_mismatch(*passes)
        if name.startswith("catalog"):
            assert [r.method for r in passes[0]] == ["blocks"] + ["bz"] * 7


def _report(method, enumerated, elapsed=1.0):
    return SimpleNamespace(method=method, enumerated=enumerated, elapsed=elapsed, d=1, exact=True)


def test_bz_counts_must_agree_and_rates_are_per_engine():
    """A code that both sides scored by BZ with different codeword counts
    is a mismatch; one scored by BZ on one side only, or by the brute scan
    on both, is not.  Rates are each engine's codewords over its seconds."""
    mismatch = bench_distance_engines.bz_mismatch
    assert mismatch([_report("bz", 5)], [_report("bz", 6)])
    assert not mismatch([_report("bz", 5)], [_report("bz", 5)])
    assert not mismatch([_report("bz", 5)], [_report("blocks", 21)])
    assert not mismatch([_report("blocks", 20)], [_report("blocks", 21)])
    reports = [_report("blocks", 300, 0.5), _report("bz", 40, 0.25), _report("bz", 60, 0.25),
               _report("blocks", 100, 0.5)]
    assert bench_distance_engines.rates(reports) == {"blocks": 400, "bz": 200}
