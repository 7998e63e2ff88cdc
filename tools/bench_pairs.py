"""Alternating parent/change pairs of the benchmark, summarised as BENCH_*.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --workload campaign-s12=10 --workload exact-deep=4 \
        --seed-base 2101 --seconds 30 --traced-seed 3 \
        --parent-commit SHA --topic "what the change does" --out BENCH_name.json

DIR are two copies of the repository tree: the parent commit and the change.
For every workload, pair i runs ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each copy, back to back, the parent first on
even i and the change first on odd i; S is seed-base + i.  With
``--traced-seed S`` each side also makes three traced runs (``--trace 1``)
per workload, at seeds S, S + 1 and S + 2, the change first at S + 1 only
(the alternation of the pairs); each per-layer metric is recorded as the
median, min and max of a side's three runs, since one traced run swings by
a third on unchanged code.  The end-to-end metrics and their directions
come from the ``BENCHMARK.json`` of the parent copy.  Each side is
summarised by the median and quartiles of its runs (linear interpolation,
numpy.percentile), and a pair is won when the change reads strictly better.
Each metric gets a verdict:

- ``gain``: at least 10 pairs, the change wins at least 9 in 10 of them and
  its median is better than the parent's by more than the parent's IQR;
- ``worse``: the change's median is worse than the parent's by more than the
  metric's bound, a fraction of the parent's median;
- ``unresolved``: the parent's IQR is wider than the bound, unless every run
  of the change reads better than every run of the parent;
- ``within-bound`` otherwise.

Each workload records each side's checks, with ``fail_share`` = failed /
attempted, and ``fail_share_worse``, true when the change fails a larger
share than the parent.  Each side also records the line counts of its
``src/skewqc`` modules and their total, next to the ``src_sha256`` of its
runs, so a change's size sits in the same file as its timings.  The output is rewritten after every pair,
so an interrupted run keeps what it measured; its ``notes`` list is left
empty for the reading of the numbers.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
TRACED_RUNS = 3


def _run(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench run in ``tree``: its meta line and its last JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    result = json.loads(lines[-1])
    result["meta"] = meta
    return result


def _src_lines(tree: Path) -> dict:
    """Lines of every ``src/skewqc`` module of ``tree`` and their total."""
    modules = {path.name: len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((tree / "src" / "skewqc").glob("*.py"))}
    return {"modules": modules, "total": sum(modules.values())}


def _summary(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4), "runs": [round(v, 4) for v in values]}


def _verdict(parent: list, change: list, wins: int, lower: bool, bound: float) -> str:
    """gain, worse, unresolved or within-bound for one metric (module docstring)."""
    q1, base, q3 = np.percentile(parent, [25, 50, 75])
    median = float(np.median(change))
    gap = (base - median) if lower else (median - base)  # > 0: the change is better
    if len(parent) >= 10 and 10 * wins >= 9 * len(parent) and gap > q3 - q1:
        return "gain"
    if -gap > bound * abs(base):
        return "worse"
    every_run_better = max(change) < min(parent) if lower else min(change) > max(parent)
    if q3 - q1 > bound * abs(base) and not every_run_better:
        return "unresolved"
    return "within-bound"


def _metrics(runs: dict, end_to_end: list) -> dict:
    out = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        wins = sum((c < p) if lower else (c > p) for p, c in zip(vals["parent"], vals["change"]))
        entry = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"]}
        entry.update({side: _summary(vals[side]) for side in SIDES})
        entry["change_wins"] = f"{wins}/{len(vals['change'])}"
        base = entry["parent"]["median"]
        entry["ratio_change_over_parent"] = (
            round(entry["change"]["median"] / base, 4) if base else None)
        entry["verdict"] = _verdict(vals["parent"], vals["change"], wins, lower, spec["bound"])
        out[name] = entry
    return out


def _checks(runs: list) -> dict:
    failed, attempted = sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)
    return {"correct": all(r["correct"] for r in runs), "failed": failed,
            "attempted": attempted, "fail_share": failed / attempted if attempted else 0.0}


def _side_checks(runs: dict) -> dict:
    """Both sides' checks, and whether the change fails a larger share of
    its operations than the parent: that counts against a change whatever
    its timings."""
    out = {f"{side}_checks": _checks(runs[side]) for side in SIDES}
    out["fail_share_worse"] = (out["change_checks"]["fail_share"]
                               > out["parent_checks"]["fail_share"])
    return out


def _order(i: int) -> tuple:
    """The sides of run i in the order they run: the parent first on even i."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def _traced(runs: list) -> dict:
    """One side's traced runs: their checks, and the median, min and max of
    every per-layer metric that all of them report."""
    names = [m for m in runs[0]["metrics"] if all(m in r["metrics"] for r in runs)]
    metrics = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        metrics[name] = {"median": float(np.median(values)), "min": min(values),
                         "max": max(values), "runs": values}
    return {**_checks(runs), "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="tree copy of the parent")
    ap.add_argument("--change", type=Path, required=True, help="tree copy of the change")
    ap.add_argument("--parent-commit", help="commit the parent copy was made from")
    ap.add_argument("--workload", action="append", required=True, metavar="NAME=PAIRS")
    ap.add_argument("--seed-base", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--traced-seed", type=int,
                    help=f"{TRACED_RUNS} traced runs per side from this seed on")
    ap.add_argument("--topic", required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    plan = []
    for item in args.workload:
        name, _, pairs = item.partition("=")
        plan.append((name, int(pairs)))

    doc = {
        "topic": args.topic,
        "command": (f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds} "
                    "--trace 0 (traced runs: --trace 1)"),
        "machine": {},
        "method": (f"parent and change run back to back from separate copies of the tree, "
                   f"parent first on even pairs (0, 2, ...) and change first on odd ones; "
                   f"pair i uses seed {args.seed_base} + i; "
                   + ", ".join(f"{name} {pairs} pairs" for name, pairs in plan)
                   + "; each value is one run's median over its passes; quartiles by linear "
                   "interpolation (numpy.percentile); a pair is won when the change reads "
                   "strictly better; verdict: gain (>= 10 pairs, >= 9/10 won, medians apart "
                   "by more than the parent's IQR), worse (median worse by more than the "
                   "bound), unresolved (parent's IQR wider than the bound, unless every "
                   "change run beats every parent run), else within-bound"
                   + (f"; traced runs (--trace 1) at seeds {args.traced_seed} .. "
                      f"{args.traced_seed + TRACED_RUNS - 1}, each seed once per side in "
                      "the pairs' alternation; per-layer metrics as median, min and max"
                      if args.traced_seed is not None else "")),
        "parent": {"commit": args.parent_commit, "src_lines": _src_lines(trees["parent"])},
        "change": {"src_lines": _src_lines(trees["change"])},
        "workloads": {},
        "traced": {},
        "notes": [],
    }

    def save():
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    for name, pairs in plan:
        runs = {side: [] for side in SIDES}
        seeds, first = [], []
        for i in range(pairs):
            seed = args.seed_base + i
            order = _order(i)
            for side in order:
                res = _run(trees[side], name, seed, args.seconds, 0)
                runs[side].append(res)
                meta = res["meta"]
                doc[side]["src_sha256"] = meta["src_sha256"]
                doc["machine"] = {key: meta[key] for key in
                                  ("cpu_model", "nproc", "python", "numpy")}
                print(f"{name} pair {i} {side}: wall_s "
                      f"{res['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
            seeds.append(seed)
            first.append(order[0])
            doc["workloads"][name] = {
                "pairs": len(seeds), "seeds": seeds, "first": first,
                "metrics": _metrics(runs, bench["end_to_end"]),
                **_side_checks(runs),
            }
            save()
        if args.traced_seed is not None:
            traced = {side: [] for side in SIDES}
            seeds = [args.traced_seed + i for i in range(TRACED_RUNS)]
            for i, seed in enumerate(seeds):
                for side in _order(i):
                    traced[side].append(_run(trees[side], name, seed, args.seconds, 1))
            doc["traced"][name] = {
                "seeds": seeds, "first": [_order(i)[0] for i in range(TRACED_RUNS)],
                **{side: _traced(traced[side]) for side in SIDES},
            }
            save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
