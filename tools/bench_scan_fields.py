"""In-process rates of the exact scan over every field, on seeded random matrices.

    python3 tools/bench_scan_fields.py --parent DIR --change DIR [--seed 1] [--repeats 5]

DIR are two copies of the repository tree.  Each side's ``skewqc`` is
imported from ``DIR/src`` into this one process, under its own module
objects, by the two-tree loader of ``tools/bench_ring_ops.py``.  Every case
of CASES is a field GF(p^e), made by ``make_field(p, 1, e)``, and an
[n, k] generator matrix: the identity, then symbols drawn by
``numpy.random.default_rng((seed, q, n))``.  Each side scans it with its
``distance._enumerate_blocks``, histogram on, best of ``--repeats`` runs,
the two sides interleaved run by run (parent first on even runs) with the
cyclic garbage collector off, so that both see the same machine.  The two
sides must return equal histograms, best weights, best messages and row
counts; the script stops with an error at the first case where they differ.
Prints one JSON object: per case its rows and d, each side's best seconds
and rows/s, and the change/parent rate ratio, slower cases included.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

import numpy as np

from bench_ring_ops import import_tree

SIDES = ("parent", "change")
# (p, e, n, k): two lengths per field, and GF(4) [41,8] and [73,8], whose
# 33 and 65 non-pivot columns pack as 32 and 64 with one column weighed by
# table; each scan visits (q^k - 1)/(q - 1) rows, 0.02 to 18 million
CASES = (
    (2, 1, 48, 22), (2, 1, 100, 20),
    (2, 2, 48, 12), (2, 2, 72, 11), (2, 2, 41, 8), (2, 2, 73, 8),
    (2, 3, 48, 8), (2, 3, 100, 8),
    (2, 4, 48, 6), (2, 4, 72, 7),
    (2, 5, 48, 5), (2, 5, 72, 5),
    (2, 8, 48, 4), (2, 8, 64, 4),
    (3, 2, 16, 8), (3, 2, 48, 7),
)


def _matrix(seed: int, q: int, n: int, k: int) -> np.ndarray:
    G = np.random.default_rng((seed, q, n)).integers(0, q, size=(k, n)).astype(np.uint8)
    G[:, :k] = np.eye(k, dtype=np.uint8)
    return G


def _scan(distance, F, G) -> tuple:
    """One exact scan: (seconds, histogram, best weight, best message, rows)."""
    t0 = time.perf_counter()
    hist, best, message, rows = distance._enumerate_blocks(F, G, True)
    return time.perf_counter() - t0, hist.tolist(), int(best), message.tolist(), int(rows)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    sides = {side: import_tree(getattr(args, side).resolve(), "skewqc.field", "skewqc.distance")
             for side in SIDES}
    cases = []
    gc.collect()
    gc.disable()
    try:
        for p, e, n, k in CASES:
            fields = {side: sides[side][0].make_field(p, 1, e) for side in SIDES}
            q = p**e
            G = _matrix(args.seed, q, n, k)
            best = dict.fromkeys(SIDES, float("inf"))
            answers = {}
            for run in range(args.repeats):
                for side in SIDES if run % 2 == 0 else SIDES[::-1]:
                    elapsed, *answer = _scan(sides[side][1], fields[side], G)
                    best[side] = min(best[side], elapsed)
                    answers[side] = answer
            if answers["parent"] != answers["change"]:
                raise SystemExit(f"GF({q}) [{n},{k}]: the sides' scans differ")
            _, d, _, rows = answers["change"]
            rate = {side: round(rows / best[side] / 1e6, 1) for side in SIDES}
            cases.append({"field": f"GF({q})", "n": n, "k": k, "rows": rows, "d": d,
                          "best_s": {side: round(best[side], 5) for side in SIDES},
                          "mrows_per_s": rate,
                          "ratio": round(rate["change"] / rate["parent"], 3)})
    finally:
        gc.enable()
    print(json.dumps({"seed": args.seed, "repeats": args.repeats, "cases": cases}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
