"""Spans around calls into skewqc's public functions, and the per-layer
metrics computed from them.

Every layer is timed from outside: the traced run swaps the names that
``verify_table`` and ``run_search`` call through ``skewqc.search`` for
timing wrappers, and hands the workloads a namespace of wrapped entry points
for the calls they make themselves.  Nothing inside ``src/`` changes.

A span is ``(span_id, parent_id, name, layer, start, end, attrs)``.  Spans
stay in memory while the pass runs and are written out when it ends.  Counts
that the library already reports (``DistanceReport.enumerated``,
``RowReport.elapsed``) are read from its results, never counted a second
time here.
"""

from __future__ import annotations

import contextlib
import json
import operator
import resource
import statistics
import time
from types import SimpleNamespace
from typing import Callable, Dict, Iterator, List, Optional

import skewqc
import skewqc.search

LAYERS = ("bench", "search", "codes", "factorization", "distance", "skewpoly", "similarity")

# name -> unit of every per-layer metric; a traced run reports all of them,
# with 0 for layers the workload never enters
PER_LAYER_UNITS: Dict[str, str] = {
    "codes.build.calls": "count",
    "codes.build.s": "s",
    "factorization.divisor_scan.calls": "count",
    "factorization.divisor_scan.candidates": "count",
    "factorization.divisor_scan.divisors": "count",
    "factorization.divisor_scan.s": "s",
    "factorization.divisor_scan.candidates_per_s": "1/s",
    "factorization.linear_factorizations.calls": "count",
    "factorization.linear_factorizations.results": "count",
    "factorization.linear_factorizations.s": "s",
    "distance.exact.calls": "count",
    "distance.exact.rows": "count",
    "distance.exact.s": "s",
    "distance.exact.cpu_s": "s",
    "distance.exact.sys_s": "s",
    "distance.exact.parallelism": "ratio",
    "distance.exact.rows_per_s": "1/s",
    "distance.exact.rows_per_s.one_word": "1/s",
    "distance.exact.rows_per_s.two_word": "1/s",
    "distance.exact.rows_per_s.symbol": "1/s",
    "distance.sampled.calls": "count",
    "distance.sampled.codewords": "count",
    "distance.sampled.s": "s",
    "distance.sampled.codewords_per_s": "1/s",
    "search.verify.rows": "count",
    "search.verify.rows_ok": "count",
    "search.verify.rows_failed": "count",
    "search.verify.rows_unverified": "count",
    "search.verify.row_p50_s": "s",
    "search.verify.row_max_s": "s",
    "search.campaign.candidates": "count",
    "search.campaign.candidate_s": "s",
    "search.export.s": "s",
    "skewpoly.mul.calls": "count",
    "skewpoly.mul.s": "s",
    "skewpoly.divmod.calls": "count",
    "skewpoly.divmod.s": "s",
    "skewpoly.gcd.calls": "count",
    "skewpoly.gcd.s": "s",
    "skewpoly.lclm.calls": "count",
    "skewpoly.lclm.s": "s",
    "similarity.are_similar.calls": "count",
    "similarity.are_similar.s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def cpu_times() -> tuple:
    """(user + sys, sys) of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        own.ru_stime + kids.ru_stime,
    )


class Tracer:
    """In-memory span recorder for one pass (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[tuple] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str, cpu: bool = False) -> Iterator[dict]:
        """Record one span; ``attrs`` may be filled in by the caller.
        ``cpu`` adds the CPU and system time spent, workers included."""
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        attrs: dict = {}
        self.spans.append(None)  # reserve the id; filled in on exit
        self._stack.append(span_id)
        cpu0 = cpu_times() if cpu else None
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            if cpu:
                cpu1 = cpu_times()
                attrs["cpu_s"] = cpu1[0] - cpu0[0]
                attrs["sys_s"] = cpu1[1] - cpu0[1]
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, name, layer, start, end, attrs)

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        describe: Optional[Callable] = None,
        cpu: bool = False,
    ) -> Callable:
        """``fn`` inside a span; ``describe(args, kwargs, result)`` adds
        attributes."""

        def traced(*args, **kwargs):
            with self.span(name, layer, cpu=cpu) as attrs:
                result = fn(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(args, kwargs, result))
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, layer, start, end, attrs in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "layer": layer, "start": start, "end": end,
                    **attrs,
                }) + "\n")


# ---------------------------------------------------------------------------
# wrappers


def _describe_exact(args, kwargs, report) -> dict:
    code = args[0]
    q = code.spec.field.q
    if q != 4:
        width = "symbol"
    else:
        width = {1: "one_word", 2: "two_word"}.get((code.n + 63) // 64, "wide")
    return {"rows": report.enumerated, "width": width}


def _describe_sampled(args, kwargs, report) -> dict:
    return {"codewords": report.enumerated}


def _describe_scan(args, kwargs, divisors) -> dict:
    field, s = args[0], args[1]
    degree = args[2] if len(args) > 2 else kwargs.get("degree")
    degrees = range(s + 1) if degree is None else [degree]
    # candidates priced exactly as the library prices the scan: q^deg for 1 <= deg < s
    candidates = sum(field.q**d for d in degrees if 1 <= d < s)
    return {"candidates": candidates, "divisors": len(divisors)}


def _describe_factorizations(args, kwargs, result) -> dict:
    return {"results": len(result)}


def plain_lib() -> SimpleNamespace:
    """The entry points the workloads call, untraced."""
    return SimpleNamespace(
        verify_table=skewqc.verify_table,
        run_search=skewqc.run_search,
        export_records=skewqc.export_records,
        min_distance=skewqc.min_distance,
        mul=operator.mul,
        right_divmod=skewqc.right_divmod,
        left_divmod=skewqc.left_divmod,
        gcrd=skewqc.gcrd,
        gcld=skewqc.gcld,
        lclm=skewqc.lclm,
        all_linear_factorizations=skewqc.all_linear_factorizations,
        are_similar=skewqc.are_similar,
    )


def _collect_campaign(run_search: Callable) -> Callable:
    # run_search is a generator: the span must cover its consumption
    def collected(*args, **kwargs):
        return list(run_search(*args, **kwargs))

    return collected


@contextlib.contextmanager
def traced_lib(tracer: Tracer) -> Iterator[SimpleNamespace]:
    """Wrapped entry points, plus wrappers on the names that verify_table and
    run_search call through skewqc.search; the originals come back on exit."""
    w = tracer.wrap
    exact = w(skewqc.min_distance, "distance.exact", "distance", _describe_exact, cpu=True)
    patches = {
        "build_code": w(skewqc.search.build_code, "codes.build", "codes"),
        "min_distance": exact,
        "min_distance_sampled": w(
            skewqc.search.min_distance_sampled, "distance.sampled", "distance",
            _describe_sampled, cpu=True,
        ),
        "modulus_right_divisors": w(
            skewqc.search.modulus_right_divisors, "factorization.divisor_scan",
            "factorization", _describe_scan,
        ),
    }
    entry_build = skewqc.search.CatalogEntry.build
    saved = {name: getattr(skewqc.search, name) for name in patches}
    lib = SimpleNamespace(
        verify_table=w(skewqc.verify_table, "search.verify", "search"),
        run_search=w(_collect_campaign(skewqc.run_search), "search.campaign", "search"),
        export_records=w(skewqc.export_records, "search.export", "search"),
        min_distance=exact,
        mul=w(operator.mul, "skewpoly.mul", "skewpoly"),
        right_divmod=w(skewqc.right_divmod, "skewpoly.divmod", "skewpoly"),
        left_divmod=w(skewqc.left_divmod, "skewpoly.divmod", "skewpoly"),
        gcrd=w(skewqc.gcrd, "skewpoly.gcd", "skewpoly"),
        gcld=w(skewqc.gcld, "skewpoly.gcd", "skewpoly"),
        lclm=w(skewqc.lclm, "skewpoly.lclm", "skewpoly"),
        all_linear_factorizations=w(
            skewqc.all_linear_factorizations, "factorization.linear_factorizations",
            "factorization", _describe_factorizations,
        ),
        are_similar=w(skewqc.are_similar, "similarity.are_similar", "similarity"),
    )
    try:
        for name, fn in patches.items():
            setattr(skewqc.search, name, fn)
        skewqc.search.CatalogEntry.build = w(entry_build, "codes.build", "codes")
        yield lib
    finally:
        for name, fn in saved.items():
            setattr(skewqc.search, name, fn)
        skewqc.search.CatalogEntry.build = entry_build


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: List[tuple], row_reports=None) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.  The root span is the timed task;
    ``row_reports`` are verify_table's RowReports when the pass verified rows."""
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    dur = {sp[0]: sp[5] - sp[4] for sp in spans}
    child_time: Dict[int, float] = {}
    for sp in spans:
        if sp[1] is not None:
            child_time[sp[1]] = child_time.get(sp[1], 0.0) + dur[sp[0]]
    by_name: Dict[str, List[tuple]] = {}
    for sp in spans:
        by_name.setdefault(sp[2], []).append(sp)
        out[f"{sp[3]}.self_s"] += dur[sp[0]] - child_time.get(sp[0], 0.0)
    root = next(sp for sp in spans if sp[1] is None)
    for layer in LAYERS:
        out[f"{layer}.share"] = _ratio(out[f"{layer}.self_s"], dur[root[0]])
    out["trace.spans"] = len(spans)

    def total(name: str, key: Optional[str] = None) -> float:
        sps = by_name.get(name, ())
        if key is None:
            return sum(dur[sp[0]] for sp in sps)
        return sum(sp[6][key] for sp in sps)

    def calls_and_time(name: str) -> None:
        out[f"{name}.calls"] = len(by_name.get(name, ()))
        out[f"{name}.s"] = total(name)

    for name in ("codes.build", "factorization.divisor_scan",
                 "factorization.linear_factorizations", "distance.exact",
                 "distance.sampled", "skewpoly.mul", "skewpoly.divmod",
                 "skewpoly.gcd", "skewpoly.lclm", "similarity.are_similar"):
        calls_and_time(name)

    scan = "factorization.divisor_scan"
    out[f"{scan}.candidates"] = total(scan, "candidates")
    out[f"{scan}.divisors"] = total(scan, "divisors")
    out[f"{scan}.candidates_per_s"] = _ratio(out[f"{scan}.candidates"], out[f"{scan}.s"])
    out["factorization.linear_factorizations.results"] = total(
        "factorization.linear_factorizations", "results"
    )

    exact = "distance.exact"
    out[f"{exact}.rows"] = total(exact, "rows")
    out[f"{exact}.cpu_s"] = total(exact, "cpu_s")
    out[f"{exact}.sys_s"] = total(exact, "sys_s")
    out[f"{exact}.parallelism"] = _ratio(out[f"{exact}.cpu_s"], out[f"{exact}.s"])
    out[f"{exact}.rows_per_s"] = _ratio(out[f"{exact}.rows"], out[f"{exact}.s"])
    for width in ("one_word", "two_word", "symbol"):
        sps = [sp for sp in by_name.get(exact, ()) if sp[6]["width"] == width]
        out[f"{exact}.rows_per_s.{width}"] = _ratio(
            sum(sp[6]["rows"] for sp in sps), sum(dur[sp[0]] for sp in sps)
        )

    sampled = "distance.sampled"
    out[f"{sampled}.codewords"] = total(sampled, "codewords")
    out[f"{sampled}.codewords_per_s"] = _ratio(out[f"{sampled}.codewords"], out[f"{sampled}.s"])

    if row_reports:
        elapsed = [r.elapsed for r in row_reports]
        out["search.verify.rows"] = len(row_reports)
        out["search.verify.rows_ok"] = sum(r.passed is True for r in row_reports)
        out["search.verify.rows_failed"] = sum(r.passed is False for r in row_reports)
        out["search.verify.rows_unverified"] = sum(r.passed is None for r in row_reports)
        out["search.verify.row_p50_s"] = statistics.median(elapsed)
        out["search.verify.row_max_s"] = max(elapsed)

    campaign_ids = {sp[0] for sp in by_name.get("search.campaign", ())}
    if campaign_ids:
        inner = [sp for sp in spans if sp[1] in campaign_ids]
        candidates = sum(sp[2] == "codes.build" for sp in inner)
        scan_time = sum(dur[sp[0]] for sp in inner if sp[2] == scan)
        out["search.campaign.candidates"] = candidates
        out["search.campaign.candidate_s"] = _ratio(
            total("search.campaign") - scan_time, candidates
        )
    out["search.export.s"] = total("search.export")
    return out
