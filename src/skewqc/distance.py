"""Exact weight enumerators and minimum distances by exhaustive enumeration.

One engine serves every field.  It enumerates one representative per scalar
orbit (first nonzero message digit pinned to 1), splitting the free rows into
an inner table of q^ki precomputed combinations and an outer Gray walk; every
batch of q^ki weights is histogrammed at once, and nonzero counts are
multiplied by q - 1 at the end.  All rows come from one table of scaled
generator rows, built once per code: over GF(4) they are bitsliced into two
uint64 bit planes and weights come from popcounts, which is what makes full
4^16 enumerations practical; other fields keep their symbols.

The inner table is stored word-major, shape (width, q^ki): one contiguous
run of q^ki entries per bit-plane word or per symbol.  One weight kernel
serves every field and both engines: it walks the table word by word with
scratch buffers reused from batch to batch (over GF(4): XOR with the
offset, OR the two planes, popcount, add; elsewhere: compare with the
negated offset and count), so a row two or three words wide costs two or
three passes over contiguous memory.  Exact-scan weights are counted in
uint8 while n <= 255 and in uint16 above (np.min_scalar_type(n)), and the
histogram and argmin run on those counts.  A full-space Gray walk over all
q^k messages, the cross-check oracle, lives in the tests.

Budgets count candidates examined: an exact scan is priced at its q^k
messages (``exact_cost``), whether or not scalar orbits let it visit fewer,
and the price is checked against the budget (default DEFAULT_BUDGET = 2^26)
*before* any work starts (BudgetExceededError), so oversized requests fail
fast instead of hanging; ``DistanceReport.enumerated`` counts the rows
actually scanned.  ``min_distance_sampled`` sums rows of the same table for
seeded random messages: a reproducible upper bound for codes beyond
exhaustive reach.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .codes import CodeStructure
from .errors import DEFAULT_BUDGET, BudgetExceededError
from .field import FieldSpec

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
# packed rows: GF(4) symbols 0..3 = lo_bit + 2 * hi_bit go into two uint64 bit
# planes, where addition is XOR of both planes and the weight of a vector is
# popcount(lo | hi); any other field keeps its symbols


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


def _packed_rows(F: FieldSpec, G: np.ndarray) -> Tuple[np.ndarray, Callable, Callable]:
    """(T, add, weights): the table T[i, lam] = lam * G[i] of shape (k, q, width).

    Over GF(4) a row is its lo and hi planes side by side in uint64 words and
    ``add`` is XOR; over any other field a row is its n symbols and ``add``
    is one lookup in the flattened F.np_add.  ``add`` acts elementwise and
    broadcasts.

    ``weights(block, offset, out)`` reads ``block`` word-major, shape
    (width, R) with one column per vector, and writes the weight of each
    column of ``block + offset`` into ``out`` (shape (R,), any integer dtype
    that holds n).  Over GF(4) it loops over the words: XOR both planes with
    the offset word, OR them, popcount and add, all into scratch buffers kept
    between calls with the same R.  Over other fields a + o is zero exactly
    when a == -o, so it counts the symbols that differ from -offset.
    """
    T = F.np_mul[np.arange(F.q)[None, :, None], G[:, None, :]]
    if F.q != 4:

        def symbol_weights(block: np.ndarray, offset: np.ndarray, out: np.ndarray) -> None:
            np.add.reduce(block != F.np_neg[offset][:, None], axis=0, dtype=out.dtype, out=out)

        # one flat lookup; the index a*q + b < q^2 <= 65,536 fits uint16
        flat_add, q = F.np_add.reshape(-1), F.q
        return T, lambda a, b: flat_add.take(a.astype(np.uint16) * q + b), symbol_weights
    lo, hi = pack_gf4(T)
    nw = lo.shape[-1]
    scratch: List[np.ndarray] = []

    def weights(block: np.ndarray, offset: np.ndarray, out: np.ndarray) -> None:
        if not scratch or scratch[0].shape != out.shape:
            scratch[:] = [np.empty(out.shape, np.uint64), np.empty(out.shape, np.uint64),
                          np.empty(out.shape, np.uint8)]
        x, y, c = scratch
        for j in range(nw):
            np.bitwise_xor(block[j], offset[j], out=x)
            np.bitwise_xor(block[nw + j], offset[nw + j], out=y)
            np.bitwise_or(x, y, out=x)
            if j == 0:
                np.bitwise_count(x, out=out)
            else:
                np.bitwise_count(x, out=c)
                np.add(out, c, out=out)

    return np.concatenate([lo, hi], axis=-1), np.bitwise_xor, weights


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


# ---------------------------------------------------------------------------
# scalar-orbit block enumeration


def _check_workers(workers: int) -> None:
    """Refuse any worker count but 1, before work starts."""
    if workers != 1:
        raise ValueError(f"workers must be 1 (enumeration runs in-process), got {workers}")


def exact_cost(code: CodeStructure) -> int:
    """Price of an exact scan of ``code`` in the budget unit: its q^k messages."""
    return code.spec.field.q ** code.k


def _lead_block(
    F: FieldSpec,
    n: int,
    rows: Tuple[np.ndarray, Callable, Callable],
    lead: int,
    want_hist: bool,
    stop_at: int = 0,
) -> Tuple[Optional[np.ndarray], int, Optional[np.ndarray], int]:
    """Enumerate messages with first nonzero digit 1 at row ``lead``.

    ``rows`` is the code's _packed_rows table.  Returns (histogram-or-None,
    best weight, best message, rows seen).
    """
    T, add, weights = rows
    q, k = F.q, T.shape[0]
    kf = k - lead - 1
    ki = 0
    while ki < kf and q ** (ki + 1) <= INNER_TABLE_LIMIT:
        ki += 1
    ko = kf - ki
    outer0 = lead + 1  # outer rows lead+1 .. lead+ko, inner rows after them

    # word-major inner table: column u is row lead plus the inner rows with
    # digit u % q on the first, (u // q) % q on the next, ...; filled in
    # place, each inner row adding its nonzero multiples to the columns so far
    B = np.empty((T.shape[-1], q**ki), dtype=T.dtype)
    B[:, 0] = T[lead, 1]
    size = 1
    for r in range(outer0 + ko, k):
        for lam in range(1, q):
            B[:, lam * size : (lam + 1) * size] = add(B[:, :size], T[r, lam][:, None])
        size *= q
    w = np.empty(B.shape[1], dtype=np.min_scalar_type(n))

    hist = np.zeros(n + 1, dtype=np.int64) if want_hist else None
    best = n + 1
    best_msg: Optional[np.ndarray] = None
    rows_seen = 0
    offset = np.zeros(T.shape[-1], dtype=T.dtype)
    odometer = [0] * ko

    def record(idx: int) -> np.ndarray:
        m = np.zeros(k, dtype=np.uint8)
        m[lead] = 1
        m[outer0 : outer0 + ko] = odometer
        for u in range(ki):
            m[outer0 + ko + u] = idx % q
            idx //= q
        return m

    def scan() -> bool:
        nonlocal best, best_msg, rows_seen
        weights(B, offset, w)
        rows_seen += w.shape[0]
        if want_hist:
            hist_part = np.bincount(w, minlength=n + 1)
            hist[: hist_part.shape[0]] += hist_part
        wmin = int(w.min())
        if wmin < best:
            best = wmin
            best_msg = record(int(np.argmin(w)))
        return best <= stop_at

    if scan():
        return hist, best, best_msg, rows_seen
    for j, old, new in _gray_steps(q, ko):
        odometer[j] = new
        offset = add(offset, T[outer0 + j, F.sub[new][old]])
        if scan() and not want_hist:
            break
    return hist, best, best_msg, rows_seen


def _enumerate_blocks(
    F: FieldSpec, G: np.ndarray, want_hist: bool, stop_at: int = 0
) -> Tuple[Optional[np.ndarray], int, Optional[np.ndarray], int]:
    """Merge the lead blocks in lead order.

    Each block stops on its own once its best weight is <= stop_at, and the
    merge stops at the first such lead.
    """
    k, n = G.shape
    rows = _packed_rows(F, G)
    hist = np.zeros(n + 1, dtype=np.int64) if want_hist else None
    best, best_msg, total_rows = n + 1, None, 0
    for lead in range(k):
        h, b, bm, seen = _lead_block(F, n, rows, lead, want_hist, stop_at=stop_at)
        total_rows += seen
        if want_hist:
            hist += h
        if b < best:
            best, best_msg = b, bm
        if not want_hist and best <= stop_at:
            break
    return hist, best, best_msg, total_rows


def weight_enumerator(code: CodeStructure, budget: int = DEFAULT_BUDGET) -> WeightEnumerator:
    """Exact weight distribution of the code (sums to q^k); refused up
    front, like min_distance, when exact_cost(code) exceeds ``budget``."""
    F = code.spec.field
    q, k, n = F.q, code.k, code.n
    if k == 0:
        return WeightEnumerator(n, k, q, {0: 1})
    cost = exact_cost(code)
    if cost > budget:
        raise BudgetExceededError("weight enumeration too large", cost, budget)
    hist, _, _, _ = _enumerate_blocks(F, code.genmatrix, True)
    counts = {w: int(c) * (q - 1) for w, c in enumerate(hist) if c}
    counts[0] = 1
    return WeightEnumerator(n, k, q, counts)


def min_distance(
    code: CodeStructure,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,  # only 1 is accepted; the keyword goes with the next benchmark change
    stop_at: int = 0,
) -> DistanceReport:
    """Exact minimum distance with a witness codeword.

    Refused up front (BudgetExceededError) when exact_cost(code) = q^k
    exceeds ``budget``, counted in candidate messages (default
    DEFAULT_BUDGET = 2^26).

    ``stop_at``: abandon the scan once the running best reaches this value
    (the true minimum can never be smaller than 1, so stop_at=0 never stops
    early and d stays exact; a positive value turns the result into a
    certified upper bound whenever it triggers).

    ``workers`` must be 1: enumeration runs in this process.
    """
    _check_workers(workers)
    F = code.spec.field
    q, k, n = F.q, code.k, code.n
    t0 = time.perf_counter()
    if k == 0:
        return DistanceReport(None, True, "empty", 0, elapsed=time.perf_counter() - t0)
    cost = exact_cost(code)
    if cost > budget:
        raise BudgetExceededError("distance enumeration too large", cost, budget)
    _, best, best_msg, rows = _enumerate_blocks(F, code.genmatrix, False, stop_at=stop_at)
    witness = code.encode(best_msg)
    exact = stop_at < best
    return DistanceReport(
        int(best),
        exact,
        "blocks",
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
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    F = code.spec.field
    q, k, n = F.q, code.k, code.n
    t0 = time.perf_counter()
    if k == 0:
        return DistanceReport(None, True, "empty", 0, elapsed=time.perf_counter() - t0)
    rng = np.random.Generator(np.random.PCG64(seed))
    T, add, weights = _packed_rows(F, code.genmatrix)
    zero = np.zeros(T.shape[-1], dtype=T.dtype)
    best = n + 1
    best_msg = None
    done = 0
    while done < trials:
        b = min(batch, trials - done)
        msgs = rng.integers(0, q, size=(b, k), dtype=np.uint8)
        done += b
        # take() gathers whole rows far faster than T[i, msgs[:, i]]
        acc = T[0].take(msgs[:, 0], axis=0)
        for i in range(1, k):
            acc = add(acc, T[i].take(msgs[:, i], axis=0))
        w = np.empty(b, dtype=np.int64)
        weights(acc.T, zero, w)
        # the rows of G are independent, so only the zero message weighs 0;
        # n + 1 keeps it out of the minimum
        w[w == 0] = n + 1
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
