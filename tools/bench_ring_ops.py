"""In-process timings of the ring operations on the ring-algebra seed pairs.

    python3 tools/bench_ring_ops.py --parent DIR --change DIR [--seed 1] [--repeats 7]

DIR are two copies of the repository tree.  Each side's ``skewqc`` is
imported from ``DIR/src`` into this one process, under its own module
objects, and builds the seeded pairs (a, b) of the ``ring-algebra``
workload with ``DIR/perfbench/workloads.py``.  Each operation is timed over
all pairs of one field, best of ``--repeats`` runs, the two sides
interleaved run by run (parent first on even runs) with the cyclic garbage
collector off, so that both see the same machine: ``products`` (a*b and
b*a), ``right_divisions`` (right_divmod of a by b), ``left_divisions``
(left_divmod of a by b), ``gcrd``, ``gcld`` and ``lclm``.  Prints one JSON
object: the best seconds per side, field (GF(4), GF(9)) and operation, the
sum of each side's products, gcrd, gcld and lclm, and the parent/change
ratios.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
import time
from pathlib import Path

OPS = ("products", "right_divisions", "left_divisions", "gcrd", "gcld", "lclm")
SUMMED = ("products", "gcrd", "gcld", "lclm")


def import_tree(tree: Path, *names: str) -> list:
    """Fresh module objects of ``names``, imported from ``tree / "src"`` and
    ``tree / "perfbench"``: every ``skewqc`` module and ``workloads`` that
    is already imported is dropped first, so each tree gets its own, and
    sys.path is restored afterwards."""
    for name in [n for n in sys.modules if n == "workloads" or n.split(".")[0] == "skewqc"]:
        del sys.modules[name]
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        del sys.path[:2]


def _load(tree: Path, seed: int):
    """The ring operations of ``tree`` and its seeded pairs, by field."""
    skewqc, workloads = import_tree(tree, "skewqc", "workloads")
    pairs = workloads.ring_setup(seed)["pairs"]
    calls = {
        "products": lambda a, b: (a * b, b * a),
        "right_divisions": skewqc.right_divmod,
        "left_divisions": skewqc.left_divmod,
        "gcrd": skewqc.gcrd,
        "gcld": skewqc.gcld,
        "lclm": skewqc.lclm,
    }
    by_field = {}
    for a, b in pairs:
        by_field.setdefault(f"GF({a.field.q})", []).append((a, b))
    return calls, by_field


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()
    sides = {"parent": _load(args.parent.resolve(), args.seed),
             "change": _load(args.change.resolve(), args.seed)}
    fields = list(sides["parent"][1])
    best = {side: {f: dict.fromkeys(OPS, float("inf")) for f in fields} for side in sides}
    gc.collect()
    gc.disable()
    try:
        for run in range(args.repeats):
            order = ("parent", "change") if run % 2 == 0 else ("change", "parent")
            for op in OPS:
                for field in fields:
                    for side in order:
                        calls, by_field = sides[side]
                        fn, pairs = calls[op], by_field[field]
                        t0 = time.perf_counter()
                        for a, b in pairs:
                            fn(a, b)
                        elapsed = time.perf_counter() - t0
                        best[side][field][op] = min(best[side][field][op], elapsed)
    finally:
        gc.enable()
    result = {"seed": args.seed, "repeats": args.repeats,
              "pairs": {f: len(sides["parent"][1][f]) for f in fields}, "best_s": {}, "ratio": {}}
    for side in sides:
        result["best_s"][side] = {f: {op: round(v, 5) for op, v in ops.items()}
                                  for f, ops in best[side].items()}
        result["best_s"][side]["summed"] = round(
            sum(best[side][f][op] for f in fields for op in SUMMED), 5)
    for f in fields:
        result["ratio"][f] = {op: round(best["parent"][f][op] / best["change"][f][op], 3)
                              for op in OPS}
    result["ratio"]["summed"] = round(
        result["best_s"]["parent"]["summed"] / result["best_s"]["change"]["summed"], 3)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
