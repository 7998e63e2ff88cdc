"""Running a deterministic search campaign for good codes.

A campaign fixes the block length s, enumerates generator polynomials g
(monic right divisors of x^s - 1), samples multiplier polynomials to complete
the generating tuple, and measures every candidate code it builds.  All
randomness flows from the config seed, so a campaign is exactly repeatable:
rerunning it yields byte-identical output files.
"""

import tempfile

from skewqc.search import (
    SearchConfig,
    classify,
    export_records,
    load_bounds,
    run_search,
)

config = SearchConfig(s=10, l=2, trials=60, seed=42)
print("campaign: s =", config.s, " l =", config.l,
      " trials =", config.trials, " seed =", config.seed)

records = list(run_search(config))
print(f"\n{len(records)} candidates produced codes; the distinct parameter sets:")
best = {}
for rec in records:
    key = (rec.n, rec.k)
    if key not in best or (rec.d or 0) > (best[key].d or 0):
        best[key] = rec
for (n, k), rec in sorted(best.items()):
    tag = "exact" if rec.exact else "sampled"
    print(f"  [{n},{k},{rec.d}] {tag}   tuple: {', '.join(rec.generators)}")

print("\n== classifying against a table of best known distances ==")
with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
    fh.write("n k best_d\n")
    for (n, k), rec in sorted(best.items()):
        fh.write(f"{n} {k} {rec.d}\n")
    bounds_path = fh.name
bounds = load_bounds(bounds_path)
sample = next(iter(best.values()))
print(f"a [{sample.n},{sample.k},{sample.d}] code against that table:",
      classify(sample.n, sample.k, sample.d, sample.exact, bounds))
print("and a hypothetical one better by 1, exact:",
      classify(sample.n, sample.k, sample.d + 1, True, bounds))
print("the same d as a sampled upper bound:",
      classify(sample.n, sample.k, sample.d + 1, False, bounds))

print("\n== determinism ==")
again = list(run_search(config))
print("second run produced identical records:", again == records)
print("identical TSV bytes:",
      export_records(again, "tsv") == export_records(records, "tsv"))
print("\nfirst TSV lines:")
for line in export_records(records, "tsv").splitlines()[:4]:
    print(" ", line)
