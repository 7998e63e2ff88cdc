"""The side loader of tools/bench_ring_ops.py on this repository's tree."""

import importlib.util
import sys
from pathlib import Path

import skewqc

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bench_ring_ops", ROOT / "tools" / "bench_ring_ops.py")
bench_ring_ops = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_ring_ops)


def test_load_imports_a_fresh_skewqc_per_side_and_splits_the_seed_pairs():
    """Two loads of one tree, as for --parent and --change: each side gets
    its own skewqc module objects, the six operations and the seed-1 pairs
    of the ring-algebra workload split by field.  sys.modules and sys.path
    are restored afterwards, so later tests keep the skewqc they imported."""
    modules, path = dict(sys.modules), list(sys.path)
    try:
        sides = [bench_ring_ops._load(ROOT, 1) for _ in range(2)]
    finally:
        for name in set(sys.modules) - set(modules):
            del sys.modules[name]
        sys.modules.update(modules)
        sys.path[:] = path
    assert sys.modules["skewqc"] is skewqc
    owners = [calls["gcrd"].__globals__ for calls, _ in sides]
    assert owners[0] is not owners[1]
    assert skewqc.gcrd.__globals__ not in owners
    classes = [type(by_field["GF(4)"][0][0]) for _, by_field in sides]
    assert classes[0] is not classes[1] and skewqc.SkewPoly not in classes
    for calls, by_field in sides:
        assert tuple(calls) == bench_ring_ops.OPS
        assert {f: len(pairs) for f, pairs in by_field.items()} == {"GF(4)": 18000, "GF(9)": 6000}
        a, b = by_field["GF(9)"][0]
        assert all(calls[op](a, b) is not None for op in bench_ring_ops.OPS)
