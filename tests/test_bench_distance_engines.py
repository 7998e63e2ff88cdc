"""The side loader, the code groups and the timed pass of
tools/bench_distance_engines.py on this repository's tree."""

import importlib.util
import sys
from pathlib import Path

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
    on (d, exact) over a slice of every group.  sys.modules and sys.path
    are restored afterwards, so later tests keep the skewqc they imported.
    The groups are the five campaigns and the 26 exact catalog rows, and
    the catalog rows all take the brute scan."""
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
        passes = [bench_distance_engines.run_group(side, g[name][:8])
                  for side, g in zip(sides, groups)]
        assert passes[0][1] == passes[1][1] and all(exact for _, exact in passes[0][1])
        if name.startswith("catalog"):
            assert passes[0][2] == {"blocks": 8}
