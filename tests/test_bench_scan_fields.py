"""The side loader and the scan of tools/bench_scan_fields.py on this
repository's tree."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import skewqc

ROOT = Path(__file__).resolve().parents[1]


def _load_tool():
    """tools/bench_scan_fields.py, which imports its loader from the
    tools/bench_ring_ops.py beside it."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_scan_fields", ROOT / "tools" / "bench_scan_fields.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "tools"))
    return module


bench_scan_fields = _load_tool()


def test_sides_import_their_own_skewqc_and_scan_every_field_alike():
    """Two loads of one tree, as for --parent and --change: each side gets
    its own field and distance modules, and both sides' scans of one seeded
    matrix agree over GF(8) (bit planes) and GF(9) (symbols).  sys.modules
    and sys.path are restored afterwards, so later tests keep the skewqc
    they imported.  The cases cover GF(2), 4, 8, 16, 32, 256 and GF(9) at
    two lengths each, and GF(4) at two more that take a table column."""
    modules, path = dict(sys.modules), list(sys.path)
    try:
        sides = [bench_scan_fields.import_tree(ROOT, "skewqc.field", "skewqc.distance")
                 for _ in range(2)]
    finally:
        for name in set(sys.modules) - set(modules):
            del sys.modules[name]
        sys.modules.update(modules)
        sys.path[:] = path
    assert sys.modules["skewqc"] is skewqc
    assert sides[0][1] is not sides[1][1] and skewqc.distance not in (sides[0][1], sides[1][1])
    for p, e, n, k in ((2, 3, 20, 4), (3, 2, 12, 4)):
        G = bench_scan_fields._matrix(1, p**e, n, k)
        answers = [bench_scan_fields._scan(distance, field.make_field(p, 1, e), G)[1:]
                   for field, distance in sides]
        assert answers[0] == answers[1]
        hist, d, message, rows = answers[0]
        assert rows == (p**(e * k) - 1) // (p**e - 1) and sum(hist) == rows
        assert d == min(w for w, c in enumerate(hist) if c) and len(message) == k
    fields = Counter(p**e for p, e, _, _ in bench_scan_fields.CASES)
    assert fields == {2: 2, 4: 4, 8: 2, 16: 2, 32: 2, 256: 2, 9: 2}
