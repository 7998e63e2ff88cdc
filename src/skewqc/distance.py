"""Exact weight enumerators and minimum distances by exhaustive enumeration.

Two independent strategies:

* ``gray``   — walk all q^k messages with a q-ary reflected Gray code, one
  row-update per step.  Simple, generic, used as the cross-check oracle.
* ``blocks`` — enumerate one representative per scalar orbit (first nonzero
  message digit pinned to 1), splitting the free rows into an inner table of
  q^ki precomputed combinations and an outer Gray walk; every batch of q^ki
  weights is histogrammed at once.  Nonzero counts are multiplied by q - 1
  at the end.  Over GF(4) the inner table is bitsliced into two uint64 bit
  planes and weights come from popcounts, which is what makes full 4^16
  enumerations practical.

Budgets are expressed in enumerated rows and checked *before* any work
starts (BudgetExceededError), so oversized requests fail fast instead of
hanging.  ``min_distance_sampled`` gives a seeded, reproducible upper bound
for codes beyond exhaustive reach.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .codes import CodeStructure
from .errors import BudgetExceededError
from .field import FieldSpec, make_field

DEFAULT_BUDGET = 2**30
INNER_TABLE_LIMIT = 2**16


@dataclass
class WeightEnumerator:
    """Full weight distribution {w: A_w}; counts sum to q^k."""

    n: int
    k: int
    q: int
    counts: Dict[int, int]

    @property
    def distance(self) -> Optional[int]:
        nz = [w for w, c in self.counts.items() if w > 0 and c > 0]
        return min(nz) if nz else None

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def polynomial_string(self) -> str:
        parts = []
        for w in sorted(self.counts):
            c = self.counts[w]
            if not c:
                continue
            if w == 0:
                parts.append(str(c))
            else:
                parts.append(f"{c}*y^{w}" if c != 1 else f"y^{w}")
        return " + ".join(parts) if parts else "0"

    def tsv_lines(self) -> List[str]:
        return [f"{w}\t{self.counts[w]}" for w in sorted(self.counts) if self.counts[w]]


@dataclass
class DistanceReport:
    d: Optional[int]
    exact: bool
    method: str
    enumerated: int
    witness: Optional[np.ndarray] = None
    witness_message: Optional[np.ndarray] = None
    elapsed: float = 0.0


# ---------------------------------------------------------------------------
# GF(4) bit planes: element 0..3 = lo_bit + 2 * hi_bit, addition is XOR of
# both planes, weight of a vector is popcount(lo | hi)


def pack_gf4(mat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Pack (..., n) symbols into (..., ceil(n/64)) uint64 bit planes.

    Symbol j lands in bit j % 64 of word j // 64; both planes are packed in
    one pass by np.packbits over the symbols zero-padded to 64 * nw.
    """
    mat = np.asarray(mat, dtype=np.uint8)
    n = mat.shape[-1]
    nw = (n + 63) // 64
    bits = np.zeros((2,) + mat.shape[:-1] + (64 * nw,), dtype=np.uint8)
    bits[0, ..., :n] = mat & 1
    bits[1, ..., :n] = (mat >> 1) & 1
    planes = np.packbits(bits, axis=-1, bitorder="little").view("<u8")
    planes = planes.astype(np.uint64, copy=False)
    return planes[0], planes[1]


def unpack_gf4(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    lead = lo.shape[:-1]
    out = np.zeros(lead + (n,), dtype=np.uint8)
    for j in range(n):
        w, b = divmod(j, 64)
        bit = np.uint64(b)
        out[..., j] = (((lo[..., w] >> bit) & np.uint64(1)) | (((hi[..., w] >> bit) & np.uint64(1)) << np.uint64(1))).astype(np.uint8)
    return out


def gf4_scale(lam: int, lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Multiply packed GF(4) vectors by the scalar lam."""
    if lam == 0:
        return np.zeros_like(lo), np.zeros_like(hi)
    if lam == 1:
        return lo.copy(), hi.copy()
    if lam == 2:  # a
        return hi.copy(), lo ^ hi
    return lo ^ hi, lo.copy()  # a^2


def gf4_weights(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Hamming weight per row of packed vectors."""
    return np.bitwise_count(lo | hi).sum(axis=-1, dtype=np.int64)


# ---------------------------------------------------------------------------
# loopless reflected q-ary Gray walk: yields (digit_index, old, new)


def _gray_steps(radix: int, ndigits: int):
    a = [0] * ndigits
    f = list(range(ndigits + 1))
    o = [1] * ndigits
    while True:
        j = f[0]
        f[0] = 0
        if j == ndigits:
            return
        old = a[j]
        a[j] += o[j]
        if a[j] == 0 or a[j] == radix - 1:
            o[j] = -o[j]
            f[j] = f[j + 1]
            f[j + 1] = j + 1
        yield j, old, a[j]


def _gray_digit_count(radix: int, ndigits: int) -> int:
    return radix**ndigits - 1


# ---------------------------------------------------------------------------
# full-space Gray enumeration (oracle path, any field)


def _enumerate_gray(F: FieldSpec, G: np.ndarray) -> Tuple[np.ndarray, int, Optional[np.ndarray]]:
    """(histogram, best_weight, best_message) over all q^k messages."""
    k, n = G.shape
    hist = np.zeros(n + 1, dtype=np.int64)
    hist[0] += 1  # zero message
    if k == 0:
        return hist, -1, None
    q = F.q
    np_add, np_mul, np_sub = F.np_add, F.np_mul, F.np_sub
    vec = np.zeros(n, dtype=np.uint8)
    msg = np.zeros(k, dtype=np.uint8)
    best = n + 1
    best_msg = None
    for j, old, new in _gray_steps(q, k):
        delta = int(np_sub[new, old])
        vec = np_add[vec, np_mul[delta][G[j]]]
        msg[j] = new
        w = int(np.count_nonzero(vec))
        hist[w] += 1
        if 0 < w < best:
            best = w
            best_msg = msg.copy()
    return hist, best, best_msg


# ---------------------------------------------------------------------------
# scalar-orbit block enumeration


def _orbit_rows(q: int, k: int) -> int:
    return (q**k - 1) // (q - 1)


def _lead_block_gf4(
    F: FieldSpec,
    G: np.ndarray,
    lead: int,
    want_hist: bool,
    stop_at: int = 0,
) -> Tuple[np.ndarray, int, Optional[np.ndarray], int]:
    """Enumerate messages with first nonzero digit 1 at row ``lead``.

    Returns (histogram-or-None, best weight, best message, rows seen).
    """
    q = 4
    k, n = G.shape
    free = G[lead + 1 :]
    kf = free.shape[0]
    ki = 0
    while ki < kf and q ** (ki + 1) <= INNER_TABLE_LIMIT:
        ki += 1
    ko = kf - ki
    inner = free[ko:]
    outer = free[:ko]

    base_lo, base_hi = pack_gf4(G[lead : lead + 1])
    blo, bhi = base_lo, base_hi
    for r in range(ki):
        rlo, rhi = pack_gf4(inner[r : r + 1])
        parts_lo, parts_hi = [], []
        for lam in range(q):
            slo, shi = gf4_scale(lam, rlo, rhi)
            parts_lo.append(blo ^ slo)
            parts_hi.append(bhi ^ shi)
        blo = np.concatenate(parts_lo)
        bhi = np.concatenate(parts_hi)

    nw = blo.shape[-1]
    hist = np.zeros(n + 1, dtype=np.int64) if want_hist else None
    best = n + 1
    best_msg: Optional[np.ndarray] = None
    rows_seen = 0

    # per-row scaled planes for the outer Gray updates
    if ko:
        out_lo, out_hi = pack_gf4(outer)
        scaled_lo = np.zeros((ko, q, nw), dtype=np.uint64)
        scaled_hi = np.zeros((ko, q, nw), dtype=np.uint64)
        for i in range(ko):
            for lam in range(q):
                scaled_lo[i, lam], scaled_hi[i, lam] = gf4_scale(
                    lam, out_lo[i], out_hi[i]
                )

    def record(idx: int, w: int, odometer: Sequence[int]) -> np.ndarray:
        m = np.zeros(k, dtype=np.uint8)
        m[lead] = 1
        for t in range(ko):
            m[lead + 1 + t] = odometer[t]
        v = idx
        for u in range(ki):
            m[lead + 1 + ko + u] = v % q
            v //= q
        return m

    olo = np.zeros(nw, dtype=np.uint64)
    ohi = np.zeros(nw, dtype=np.uint64)
    odometer = [0] * ko

    def scan(od):
        nonlocal best, best_msg, rows_seen
        lo = blo ^ olo
        hi = bhi ^ ohi
        w = np.bitwise_count(lo | hi).sum(axis=-1, dtype=np.int64)
        rows_seen += w.shape[0]
        if want_hist:
            hist_part = np.bincount(w, minlength=n + 1)
            hist[: hist_part.shape[0]] += hist_part
        wmin = int(w.min())
        if wmin < best:
            best = wmin
            best_msg = record(int(np.argmin(w)), wmin, od)
        return best <= stop_at

    if scan(odometer):
        return hist, best, best_msg, rows_seen
    if ko:
        sub = F.sub
        for j, old, new in _gray_steps(q, ko):
            odometer[j] = new
            delta = sub[new][old]
            olo ^= scaled_lo[j, delta]
            ohi ^= scaled_hi[j, delta]
            if scan(odometer) and not want_hist:
                break
    return hist, best, best_msg, rows_seen


def _lead_block_generic(
    F: FieldSpec,
    G: np.ndarray,
    lead: int,
    want_hist: bool,
    stop_at: int = 0,
) -> Tuple[np.ndarray, int, Optional[np.ndarray], int]:
    """Symbol-domain version of _lead_block_gf4 for any field order."""
    q = F.q
    k, n = G.shape
    free = G[lead + 1 :]
    kf = free.shape[0]
    ki = 0
    while ki < kf and q ** (ki + 1) <= INNER_TABLE_LIMIT:
        ki += 1
    ko = kf - ki
    inner = free[ko:]
    outer = free[:ko]
    np_add, np_mul = F.np_add, F.np_mul

    B = G[lead : lead + 1].copy()
    for r in range(ki):
        row = inner[r]
        B = np.concatenate([np_add[B, np_mul[lam][row]] for lam in range(q)])

    hist = np.zeros(n + 1, dtype=np.int64) if want_hist else None
    best = n + 1
    best_msg: Optional[np.ndarray] = None
    rows_seen = 0
    offset = np.zeros(n, dtype=np.uint8)
    odometer = [0] * ko

    def record(idx: int, od) -> np.ndarray:
        m = np.zeros(k, dtype=np.uint8)
        m[lead] = 1
        for t in range(ko):
            m[lead + 1 + t] = od[t]
        v = idx
        for u in range(ki):
            m[lead + 1 + ko + u] = v % q
            v //= q
        return m

    def scan(od):
        nonlocal best, best_msg, rows_seen
        rows = np_add[B, offset]
        w = np.count_nonzero(rows, axis=1).astype(np.int64)
        rows_seen += w.shape[0]
        if want_hist:
            hp = np.bincount(w, minlength=n + 1)
            hist[: hp.shape[0]] += hp
        wmin = int(w.min())
        if wmin < best:
            best = wmin
            best_msg = record(int(np.argmin(w)), od)
        return best <= stop_at

    if scan(odometer):
        return hist, best, best_msg, rows_seen
    if ko:
        sub = F.sub
        for j, old, new in _gray_steps(q, ko):
            odometer[j] = new
            delta = sub[new][old]
            offset = np_add[offset, np_mul[delta][outer[j]]]
            if scan(odometer) and not want_hist:
                break
    return hist, best, best_msg, rows_seen


def _lead_worker(args):
    p, t, m, g_bytes, shape, lead, want_hist, stop_at = args
    F = make_field(p, t, m)
    G = np.frombuffer(g_bytes, dtype=np.uint8).reshape(shape)
    fn = _lead_block_gf4 if F.q == 4 else _lead_block_generic
    return fn(F, G, lead, want_hist, stop_at=stop_at)


def _lead_results(
    F: FieldSpec, G: np.ndarray, want_hist: bool, workers: int, stop_at: int
) -> Iterator[Tuple[Optional[np.ndarray], int, Optional[np.ndarray], int]]:
    """Per-lead block results, in lead order, on ``workers`` processes."""
    k = G.shape[0]
    if workers <= 1:
        fn = _lead_block_gf4 if F.q == 4 else _lead_block_generic
        for lead in range(k):
            yield fn(F, G, lead, want_hist, stop_at=stop_at)
        return
    jobs = [
        (F.p, F.t, F.m, G.tobytes(), G.shape, lead, want_hist, stop_at)
        for lead in range(k)
    ]
    # pool.map yields in submission order, so the merge is deterministic no
    # matter which worker finishes first; closing this generator early
    # cancels the leads not yet started
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_lead_worker, jobs)


def _enumerate_blocks(
    F: FieldSpec,
    G: np.ndarray,
    want_hist: bool,
    workers: int = 1,
    stop_at: int = 0,
) -> Tuple[Optional[np.ndarray], int, Optional[np.ndarray], int]:
    """Merge the lead blocks in lead order.

    Each block stops on its own once its best weight is <= stop_at, and the
    merge stops at the first such lead, so every field of the result is the
    same for any worker count.
    """
    k, n = G.shape
    hist = np.zeros(n + 1, dtype=np.int64) if want_hist else None
    best, best_msg, total_rows = n + 1, None, 0
    with closing(_lead_results(F, G, want_hist, workers, stop_at)) as results:
        for h, b, bm, rows in results:
            total_rows += rows
            if want_hist:
                hist += h
            if b < best:
                best, best_msg = b, bm
            if not want_hist and best <= stop_at:
                break
    return hist, best, best_msg, total_rows


def _pick_method(F: FieldSpec, k: int, method: str) -> str:
    if method != "auto":
        return method
    return "blocks" if k > 0 else "gray"


def weight_enumerator(
    code: CodeStructure,
    budget: int = DEFAULT_BUDGET,
    method: str = "auto",
    workers: int = 1,
) -> WeightEnumerator:
    """Exact weight distribution of the code (sums to q^k)."""
    F = code.spec.field
    q, k, n = F.q, code.k, code.n
    if k == 0:
        return WeightEnumerator(n, k, q, {0: 1})
    method = _pick_method(F, k, method)
    if method == "gray":
        cost = q**k
    elif method == "blocks":
        cost = _orbit_rows(q, k)
    else:
        raise ValueError(f"unknown method {method!r}")
    if cost > budget:
        raise BudgetExceededError("weight enumeration too large", cost, budget)
    if method == "gray":
        hist, _, _ = _enumerate_gray(F, code.genmatrix)
        counts = {w: int(c) for w, c in enumerate(hist) if c}
    else:
        hist, _, _, _ = _enumerate_blocks(F, code.genmatrix, True, workers=workers)
        counts = {w: int(c) * (q - 1) for w, c in enumerate(hist) if c}
        counts[0] = 1
    return WeightEnumerator(n, k, q, counts)


def min_distance(
    code: CodeStructure,
    budget: int = DEFAULT_BUDGET,
    method: str = "auto",
    workers: int = 1,
    stop_at: int = 0,
) -> DistanceReport:
    """Exact minimum distance with a witness codeword.

    ``stop_at``: abandon the scan once the running best reaches this value
    (the true minimum can never be smaller than 1, so stop_at=0 never stops
    early and d stays exact; a positive value turns the result into a
    certified upper bound whenever it triggers).
    """
    F = code.spec.field
    q, k, n = F.q, code.k, code.n
    t0 = time.perf_counter()
    if k == 0:
        return DistanceReport(None, True, "empty", 0, elapsed=time.perf_counter() - t0)
    method = _pick_method(F, k, method)
    cost = q**k if method == "gray" else _orbit_rows(q, k)
    if cost > budget:
        raise BudgetExceededError("distance enumeration too large", cost, budget)
    if method == "gray":
        hist, best, best_msg = _enumerate_gray(F, code.genmatrix)
        rows = int(hist.sum())
    else:
        _, best, best_msg, rows = _enumerate_blocks(
            F, code.genmatrix, False, workers=workers, stop_at=stop_at
        )
    witness = code.encode(best_msg)
    exact = stop_at < best
    return DistanceReport(
        int(best),
        exact,
        method,
        rows,
        witness=witness,
        witness_message=best_msg,
        elapsed=time.perf_counter() - t0,
    )


def min_distance_sampled(
    code: CodeStructure,
    trials: int,
    seed: int = 0,
    batch: int = 1 << 14,
) -> DistanceReport:
    """Seeded random-message upper bound on the distance (exact=False)."""
    F = code.spec.field
    q, k, n = F.q, code.k, code.n
    t0 = time.perf_counter()
    if k == 0:
        return DistanceReport(None, True, "empty", 0, elapsed=time.perf_counter() - t0)
    rng = np.random.Generator(np.random.PCG64(seed))
    G = code.genmatrix
    best = n + 1
    best_msg = None
    done = 0
    use_planes = q == 4
    if use_planes:
        nw = (n + 63) // 64
        plane_lo = np.zeros((k, q, nw), dtype=np.uint64)
        plane_hi = np.zeros((k, q, nw), dtype=np.uint64)
        for i in range(k):
            rlo, rhi = pack_gf4(G[i])
            for lam in range(q):
                plane_lo[i, lam], plane_hi[i, lam] = gf4_scale(lam, rlo, rhi)
    while done < trials:
        b = min(batch, trials - done)
        msgs = rng.integers(0, q, size=(b, k), dtype=np.uint8)
        done += b
        if use_planes:
            acc_lo = np.zeros((b, nw), dtype=np.uint64)
            acc_hi = np.zeros((b, nw), dtype=np.uint64)
            for i in range(k):
                acc_lo ^= plane_lo[i, msgs[:, i]]
                acc_hi ^= plane_hi[i, msgs[:, i]]
            w = gf4_weights(acc_lo, acc_hi)
        else:
            acc = np.zeros((b, n), dtype=np.uint8)
            for i in range(k):
                acc = F.np_add[acc, F.np_mul[msgs[:, i], G[i]]]
            w = np.count_nonzero(acc, axis=1).astype(np.int64)
        w[~msgs.any(axis=1)] = n + 1  # ignore the zero message
        wmin = int(w.min())
        if wmin < best:
            best = wmin
            best_msg = msgs[int(np.argmin(w))].copy()
    witness = code.encode(best_msg) if best_msg is not None else None
    return DistanceReport(
        int(best) if best <= n else None,
        False,
        "sampled",
        done,
        witness=witness,
        witness_message=best_msg,
        elapsed=time.perf_counter() - t0,
    )


def default_workers() -> int:
    """Worker count for CLI use, from SKEWQC_THREADS (default 1)."""
    try:
        return max(1, int(os.environ.get("SKEWQC_THREADS", "1")))
    except ValueError:
        return 1
