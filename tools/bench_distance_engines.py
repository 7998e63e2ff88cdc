"""In-process timings of the exact-distance engine choice, search._distance.

    python3 tools/bench_distance_engines.py --parent DIR --change DIR \
        [--repeats 5] [--out BENCH_name.json]

DIR are two copies of the repository tree.  Each side's ``skewqc`` is
imported from ``DIR/src`` into this one process, under its own module
objects, by the two-tree loader of ``tools/bench_ring_ops.py``, and builds
its own codes: the nonzero candidates of the campaigns
``SearchConfig(s=12, l=2, trials=60, seed=S)`` for S = 3 .. 7, built as
``run_search`` builds them, and the asserted catalog rows whose exact scan
fits the default budget.  Each group of codes is timed through that side's
``search._distance`` at the default budget, best of ``--repeats`` runs,
the two sides interleaved run by run (parent first on even runs) with the
cyclic garbage collector off, so that both see the same machine.  The two
sides must return the same (d, exact) for every code, and the same
``enumerated`` for every code that both scored by Brouwer-Zimmermann; the
script stops with an error at the first group where they differ.  Prints
one JSON object: per group its codes, each side's best seconds, the count
of codes per engine (the report's ``method``), each engine's codewords per
second in that side's fastest pass (its reports' ``enumerated`` over their
``elapsed``: rows for ``blocks``, weighed messages for ``bz``), and the
parent/change ratio.  The brute scan's rate over BZ's, on the group where
both run codes of the same size, is the BZ_COST_RATIO it measures.  With
``--out`` the object is also written into that file under the key
``in_process``, next to what ``tools/bench_pairs.py`` wrote there.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import sys
import time
from collections import Counter
from pathlib import Path

from bench_ring_ops import import_tree

SIDES = ("parent", "change")
SEEDS = range(3, 8)


def _campaign_codes(skewqc, seed: int) -> list:
    """The nonzero codes of one campaign's candidates, in stream order."""
    search = skewqc.search
    config = search.SearchConfig(s=12, l=2, trials=60, seed=seed)
    field = skewqc.make_field(config.p, config.t, config.m)
    gmin, gmax = config.degree_window
    divisors = search._window_divisors(field, config.s, range(gmin, gmax + 1), config.budget)
    stream = search._candidate_stream(config, field, divisors)
    codes = (skewqc.build_code(field, config.s, skewqc.degenerate_tuple(g, fs, config.s))
             for g, fs in itertools.islice(stream, config.trials))
    return [code for code in codes if code.k]


def _catalog_codes(skewqc) -> list:
    """The asserted catalog rows whose exact scan fits the default budget."""
    codes = []
    for entry in skewqc.catalog():
        if entry.note != "unverified-transcription":
            code = entry.build()
            if skewqc.distance.exact_cost(code) <= skewqc.search.DEFAULT_DISTANCE_BUDGET:
                codes.append(code)
    return codes


def groups(skewqc) -> dict:
    """Group name -> codes, built by one side's ``skewqc``."""
    out = {f"campaign seed {seed}": _campaign_codes(skewqc, seed) for seed in SEEDS}
    out["catalog exact rows"] = _catalog_codes(skewqc)
    return out


def run_group(skewqc, codes: list) -> tuple:
    """(seconds, reports) of one pass over codes."""
    search = skewqc.search
    t0 = time.perf_counter()
    reports = [search._distance(code, search.DEFAULT_DISTANCE_BUDGET, 1, 0) for code in codes]
    return time.perf_counter() - t0, reports


def answers(reports: list) -> list:
    """(d, exact) per report."""
    return [(r.d, r.exact) for r in reports]


def bz_mismatch(parent: list, change: list) -> bool:
    """Whether a code that both sides scored by BZ weighed a different
    number of codewords on each."""
    return any(a.method == b.method == "bz" and a.enumerated != b.enumerated
               for a, b in zip(parent, change))


def rates(reports: list) -> dict:
    """Codewords per second of each engine over ``reports``."""
    seen, seconds = Counter(), Counter()
    for r in reports:
        seen[r.method] += r.enumerated
        seconds[r.method] += r.elapsed
    return {m: round(seen[m] / seconds[m]) for m in sorted(seen) if seconds[m] > 0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    sides = {}
    for side in SIDES:
        skewqc, = import_tree(getattr(args, side).resolve(), "skewqc")
        sides[side] = (skewqc, groups(skewqc))
    result = {"repeats": args.repeats, "groups": []}
    gc.collect()
    gc.disable()
    try:
        for name in sides["parent"][1]:
            best = dict.fromkeys(SIDES, float("inf"))
            fastest = {}  # side -> the reports of its fastest pass
            for run in range(args.repeats):
                for side in SIDES if run % 2 == 0 else SIDES[::-1]:
                    skewqc, by_group = sides[side]
                    elapsed, reports = run_group(skewqc, by_group[name])
                    if elapsed < best[side]:
                        best[side], fastest[side] = elapsed, reports
            if answers(fastest["parent"]) != answers(fastest["change"]):
                raise SystemExit(f"{name}: the sides' (d, exact) differ")
            if bz_mismatch(fastest["parent"], fastest["change"]):
                raise SystemExit(f"{name}: the sides' BZ codeword counts differ")
            result["groups"].append({
                "group": name, "codes": len(fastest["change"]),
                "best_s": {side: round(best[side], 5) for side in SIDES},
                "methods": {side: dict(sorted(Counter(r.method for r in fastest[side]).items()))
                            for side in SIDES},
                "codewords_per_s": {side: rates(fastest[side]) for side in SIDES},
                "ratio": round(best["parent"] / best["change"], 3)})
    finally:
        gc.enable()
    print(json.dumps(result))
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc["in_process"] = result
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
