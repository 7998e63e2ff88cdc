"""Seeded generator-tuple search campaigns and code-table verification.

A campaign follows the construction flow for 1-generator skew quasi-cyclic
codes: fix the block length s, enumerate monic right divisors g of x^s - 1
with degree inside a configured window, sample multiplier polynomials
f_1, ..., f_{l-1}, and evaluate the code generated by the tuple
(g, f_1*g, ..., f_{l-1}*g).  Each candidate yields one SearchRecord carrying
the measured [n, k, d], the reduced generating tuple as coefficient strings,
whether d is exact or a sampled upper bound, and a classification against a
user-supplied table of best-known minimum distances.

Determinism contract: all random choices are drawn from the config seed, the
candidate stream is indexed before evaluation, and exports use a stable field
order with an empty timestamp by default — so identical configs produce
byte-identical output files.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .codes import CodeStructure, build_code
from .distance import (
    DistanceReport,
    _check_workers,
    exact_cost,
    min_distance,
    min_distance_sampled,
)
from .errors import DEFAULT_BUDGET as DEFAULT_DISTANCE_BUDGET
from .factorization import modulus_right_divisors
from .field import FieldSpec, make_field
from .notation import parse_coeff_string, poly_coeff_string
from .skewpoly import SkewPoly
from .tables import CatalogEntry, catalog

DEFAULT_SAMPLE_TRIALS = 100_000
GF4 = (2, 1, 2)  # (p, t, m) of the default field


# ---------------------------------------------------------------------------
# campaign configuration


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one deterministic search campaign.

    ``g``/``fs`` pin the campaign to a single explicit tuple (coefficient
    strings; ``fs`` comma-separated) instead of enumerating candidates —
    useful for replaying a known code.  ``trials`` caps the total number of
    candidates evaluated under either sampling policy; 0 means an empty
    campaign.  ``budget`` counts candidates examined (default
    DEFAULT_BUDGET = 2^26): it bounds the divisor scan, priced as in
    modulus_right_divisors, and picks each candidate's distance method, exact
    when its q^k messages fit the budget, otherwise ``distance_trials``
    seeded random codewords (exact=False).
    """

    s: int
    p: int = 2
    t: int = 1
    m: int = 2
    l: int = 2
    g_degree_min: int = 1
    g_degree_max: Optional[int] = None
    sampling: str = "random"  # or "exhaustive"
    trials: int = 0
    seed: int = 0
    budget: int = DEFAULT_DISTANCE_BUDGET
    distance_trials: int = DEFAULT_SAMPLE_TRIALS
    bounds: str = ""
    output: str = ""
    g: str = ""
    fs: str = ""

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("s must be positive")
        if self.s % self.m != 0:
            raise ValueError(
                f"x^{self.s} - 1 is not central: m = {self.m} does not divide s = {self.s}"
            )
        if self.l < 1:
            raise ValueError("l must be at least 1")
        if self.sampling not in ("random", "exhaustive"):
            raise ValueError(f"unknown sampling policy {self.sampling!r}")
        if self.trials < 0:
            raise ValueError("trials must be non-negative")
        if self.seed < 0:
            # sampled candidates draw from seed + index
            raise ValueError("seed must be non-negative")
        if self.budget < 1 or self.distance_trials < 1:
            raise ValueError("budget and distance_trials must be positive")
        gmax = self.s - 1 if self.g_degree_max is None else self.g_degree_max
        if not self.g and not 1 <= self.g_degree_min <= gmax <= self.s - 1:
            raise ValueError(
                f"generator degree window [{self.g_degree_min}, {gmax}] "
                f"must sit inside [1, {self.s - 1}]"
            )

    @property
    def degree_window(self) -> Tuple[int, int]:
        gmax = self.s - 1 if self.g_degree_max is None else self.g_degree_max
        return (self.g_degree_min, gmax)


_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(SearchConfig)}


def _parse_value(name: str, raw: str):
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in ("'", '"'):
        return raw[1:-1]
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    try:
        return int(raw)
    except ValueError:
        return raw


def parse_config_text(text: str) -> Dict[str, object]:
    """Parse flat ``key = value`` lines (comments with #, quoted strings)."""
    values: Dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        values[key] = _parse_value(key, raw)
    return values


def load_config(
    path: Optional[str] = None, overrides: Optional[Dict[str, object]] = None
) -> SearchConfig:
    """Build a SearchConfig from an optional file plus override mapping."""
    values: Dict[str, object] = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            values.update(parse_config_text(fh.read()))
    for key, val in (overrides or {}).items():
        key = key.replace("-", "_")
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = _parse_value(key, val) if isinstance(val, str) else val
    if "s" not in values:
        raise ValueError("config must set s (the block length)")
    return SearchConfig(**values)


# ---------------------------------------------------------------------------
# bounds tables and record classification


def load_bounds(path: str) -> Dict[Tuple[int, int], int]:
    """Read a best-known-distance table: whitespace-separated n, k, best_d
    per line, # comments, one optional non-numeric header row."""
    table: Dict[Tuple[int, int], int] = {}
    first_data_row = True
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'n k best_d', got {line!r}")
            try:
                n, k, d = (int(x) for x in parts)
            except ValueError:
                if first_data_row:
                    first_data_row = False
                    continue  # header row
                raise ValueError(f"{path}:{lineno}: non-integer bounds row {line!r}")
            first_data_row = False
            table[(n, k)] = d
    return table


def classify(n: int, k: int, d: Optional[int], bounds: Dict[Tuple[int, int], int]) -> str:
    """new (beats the table), good (ties it), below (worse).

    Parameters absent from the table count as best_d = 0, so relative to an
    empty table every nonzero distance is new.
    """
    if d is None:
        return "below"
    best = bounds.get((n, k), 0)
    if d > best:
        return "new"
    if d == best:
        return "good"
    return "below"


# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class SearchRecord:
    """One evaluated candidate: parameters, generating tuple, provenance.

    ``generators`` holds the reduced tuple components as coefficient strings
    over ``field``, given as (p, t, m) of make_field; rebuilding the code
    from them reproduces k and (when exact) d.  The timestamp is empty unless
    explicitly stamped, keeping exports byte-identical across reruns.
    """

    n: int
    k: int
    d: Optional[int]
    exact: bool
    comparison: str
    generators: Tuple[str, ...]
    timestamp: str = ""
    field: Tuple[int, int, int] = GF4

    def as_dict(self) -> Dict[str, object]:
        # GF(4) records carry no "field" key, so their exports stay as they were
        data: Dict[str, object] = {
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "exact": self.exact,
            "comparison": self.comparison,
            "generators": list(self.generators),
            "timestamp": self.timestamp,
        }
        if self.field != GF4:
            data["field"] = list(self.field)
        return data

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "SearchRecord":
        return SearchRecord(
            n=int(data["n"]),
            k=int(data["k"]),
            d=None if data["d"] is None else int(data["d"]),
            exact=bool(data["exact"]),
            comparison=str(data["comparison"]),
            generators=tuple(str(g) for g in data["generators"]),
            timestamp=str(data.get("timestamp", "")),
            field=tuple(int(x) for x in data.get("field", GF4)),
        )

    def rebuild(self, field: Optional[FieldSpec] = None) -> CodeStructure:
        """Reconstruct the code from the stored strings (over the record's
        own field unless ``field`` is given)."""
        F = field if field is not None else make_field(*self.field)
        s = self.n // len(self.generators)
        polys = tuple(parse_coeff_string(F, g) for g in self.generators)
        return build_code(F, s, polys)


TSV_HEADER = "n\tk\td\texact\tcomparison\tgenerators\ttimestamp"


def records_to_tsv(records: Iterable[SearchRecord]) -> str:
    lines = [TSV_HEADER]
    for r in records:
        lines.append(
            "\t".join(
                (
                    str(r.n),
                    str(r.k),
                    "" if r.d is None else str(r.d),
                    "true" if r.exact else "false",
                    r.comparison,
                    ",".join(r.generators),
                    r.timestamp,
                )
            )
        )
    return "\n".join(lines) + "\n"


def records_to_json(records: Iterable[SearchRecord]) -> str:
    return json.dumps([r.as_dict() for r in records], indent=2) + "\n"


def records_from_json(text: str) -> List[SearchRecord]:
    return [SearchRecord.from_dict(obj) for obj in json.loads(text)]


def export_records(records: Sequence[SearchRecord], fmt: str = "tsv") -> str:
    if fmt == "tsv":
        return records_to_tsv(records)
    if fmt == "json":
        return records_to_json(records)
    raise ValueError(f"unknown export format {fmt!r}")


# ---------------------------------------------------------------------------
# the campaign itself


def _distance(code: CodeStructure, budget: int, trials: int, seed: int) -> DistanceReport:
    """Exact distance when exact_cost(code) = q^k fits the budget, otherwise
    an upper bound from ``trials`` seeded random codewords."""
    if exact_cost(code) <= budget:
        return min_distance(code, budget=budget)
    return min_distance_sampled(code, trials=trials, seed=seed)


def _exhaustive_vectors(field: FieldSpec, s: int, count: int) -> Iterator[Tuple[SkewPoly, ...]]:
    """All count-tuples of coefficient vectors of degree < s, lexicographic
    (component 0 varies fastest, coefficient of x^0 fastest within it)."""
    q = field.q
    digits = s * count
    total = q**digits
    idx = 0
    while idx < total:
        v = idx
        polys = []
        for _ in range(count):
            coeffs = []
            for _ in range(s):
                coeffs.append(v % q)
                v //= q
            polys.append(SkewPoly(field, coeffs))
        yield tuple(polys)
        idx += 1


def _candidate_stream(
    config: SearchConfig, field: FieldSpec, divisors: Sequence[SkewPoly]
) -> Iterator[Tuple[SkewPoly, Tuple[SkewPoly, ...]]]:
    q, s = field.q, config.s
    if config.g:
        g = parse_coeff_string(field, config.g)
        fs = tuple(
            parse_coeff_string(field, tok)
            for tok in config.fs.split(",")
            if tok.strip()
        )
        if len(fs) != config.l - 1:
            raise ValueError(
                f"fixed tuple needs l - 1 = {config.l - 1} multipliers, got {len(fs)}"
            )
        yield (g, fs)
        return
    if config.sampling == "random":
        rng = random.Random(config.seed)
        while True:
            g = divisors[rng.randrange(len(divisors))]
            fs = tuple(
                SkewPoly(field, [rng.randrange(q) for _ in range(s)])
                for _ in range(config.l - 1)
            )
            yield (g, fs)
    else:
        for g in divisors:
            for fs in _exhaustive_vectors(field, s, config.l - 1):
                yield (g, fs)


def run_search(
    config: SearchConfig,
    workers: int = 1,  # only 1 is accepted; the keyword goes with the next benchmark change
    progress: Optional[Callable[[str], None]] = None,
) -> Iterator[SearchRecord]:
    """Evaluate up to config.trials candidate tuples, yielding one record per
    candidate that generates a nonzero code.  Fully deterministic for a fixed
    config: candidates are evaluated one at a time, in stream order, in this
    process.  ``workers`` must be 1; any other value raises ValueError before
    the first candidate."""
    _check_workers(workers)
    if config.trials == 0:
        return
    field = make_field(config.p, config.t, config.m)
    s = config.s
    bounds = load_bounds(config.bounds) if config.bounds else {}
    divisors: List[SkewPoly] = []
    if not config.g:
        gmin, gmax = config.degree_window
        for dg in range(gmin, gmax + 1):
            divisors.extend(modulus_right_divisors(field, s, dg, budget=config.budget))
        if not divisors:
            return
    stream = _candidate_stream(config, field, divisors)
    for index, (g, fs) in enumerate(itertools.islice(stream, config.trials)):
        components = (g,) + tuple(f * g for f in fs)
        code = build_code(field, s, components)
        if code.k == 0:
            if progress:
                progress(f"candidate {index}: zero code, skipped")
            continue
        report = _distance(code, config.budget, config.distance_trials, config.seed + index)
        record = SearchRecord(
            n=code.n,
            k=code.k,
            d=report.d,
            exact=report.exact,
            comparison=classify(code.n, code.k, report.d, bounds),
            generators=tuple(poly_coeff_string(p) for p in code.spec.generators),
            field=(config.p, config.t, config.m),
        )
        if progress:
            progress(
                f"candidate {index}: [{record.n},{record.k},{record.d}] "
                f"{'exact' if record.exact else 'sampled'} {record.comparison}"
            )
        yield record


# ---------------------------------------------------------------------------
# table verification


@dataclass(frozen=True)
class RowReport:
    """Outcome of re-checking one catalog row against its claimed [n,k,d]."""

    name: str
    n: int
    k: int
    d: int
    status: str  # ok | fail | error | unverified
    k_found: Optional[int] = None
    d_found: Optional[int] = None
    exact: bool = False
    detail: str = ""
    elapsed: float = 0.0

    @property
    def passed(self) -> Optional[bool]:
        """True/False for asserted rows, None for unverified transcriptions."""
        if self.status == "ok":
            return True
        if self.status == "unverified":
            return None
        return False

    def line(self) -> str:
        tag = {"ok": "ok  ", "fail": "FAIL", "error": "ERR ", "unverified": "??? "}[
            self.status
        ]
        body = f"{tag} {self.name:28s} [{self.n},{self.k},{self.d}]"
        if self.k_found is not None:
            body += f" k={self.k_found}"
        if self.d_found is not None:
            mode = "d" if self.exact else "sampled min"
            body += f" {mode}={self.d_found}"
        if self.detail:
            body += f"  ({self.detail})"
        return body


def _check_verify_args(budget: int, sample_trials: int, seed: int) -> None:
    if budget < 1 or sample_trials < 1:
        raise ValueError(f"budget {budget} and sample_trials {sample_trials} must be positive")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def verify_entry(
    entry: CatalogEntry,
    budget: int = DEFAULT_DISTANCE_BUDGET,
    sample_trials: int = DEFAULT_SAMPLE_TRIALS,
    seed: int = 0,
) -> RowReport:
    """Re-check one row: dimension always; distance exact when the code's
    q^k messages fit ``budget`` (candidates examined, default
    DEFAULT_BUDGET = 2^26), otherwise sampled consistency over
    ``sample_trials`` codewords (no codeword below the claim).  Rows shipped
    as unverified transcriptions are reported, never asserted."""
    _check_verify_args(budget, sample_trials, seed)
    t0 = time.perf_counter()
    name, n, k, d = entry.name, entry.n, entry.k, entry.d
    unverified = entry.note == "unverified-transcription"

    def report(status: str, **kw) -> RowReport:
        return RowReport(
            name, n, k, d, status, elapsed=time.perf_counter() - t0, **kw
        )

    try:
        code = entry.build()
    except Exception as exc:  # report per row, never abort the batch
        if unverified:
            return report("unverified", detail=f"build failed: {exc}")
        return report("error", detail=str(exc))
    if unverified:
        note = "transcription not asserted"
        if code.k != k:
            note += f"; built dimension {code.k} != {k}"
        return report("unverified", k_found=code.k, detail=note)
    if code.k != k:
        return report("fail", k_found=code.k, detail=f"dimension {code.k} != {k}")
    rep = _distance(code, budget, sample_trials, seed)
    if rep.exact:
        if rep.d != d:
            return report(
                "fail", k_found=code.k, d_found=rep.d, exact=True,
                detail=f"exact distance {rep.d} != {d}",
            )
        return report("ok", k_found=code.k, d_found=rep.d, exact=True)
    if rep.d is not None and rep.d < d:
        return report(
            "fail", k_found=code.k, d_found=rep.d,
            detail=f"sampled codeword of weight {rep.d} < {d}",
        )
    return report(
        "ok", k_found=code.k, d_found=rep.d,
        detail=f"consistent over {sample_trials} samples",
    )


def verify_table(
    entries: Optional[Sequence[CatalogEntry]] = None,
    budget: int = DEFAULT_DISTANCE_BUDGET,
    sample_trials: int = DEFAULT_SAMPLE_TRIALS,
    seed: int = 0,
    workers: int = 1,  # only 1 is accepted; the keyword goes with the next benchmark change
    progress: Optional[Callable[[str], None]] = None,
) -> List[RowReport]:
    """Re-check a batch of catalog rows (the whole catalog by default).
    ``workers`` must be 1."""
    _check_workers(workers)
    _check_verify_args(budget, sample_trials, seed)
    rows = list(entries) if entries is not None else catalog()
    reports = []
    for entry in rows:
        rep = verify_entry(entry, budget=budget, sample_trials=sample_trials, seed=seed)
        if progress:
            progress(rep.line())
        reports.append(rep)
    return reports


def table_ok(reports: Iterable[RowReport]) -> bool:
    """True when no asserted row failed (unverified rows never count)."""
    return all(rep.passed is not False for rep in reports)
