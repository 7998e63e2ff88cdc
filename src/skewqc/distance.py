"""Weight enumerators and minimum distances: one weight kernel, two exact
engines and a sampler.

One weight kernel (_weight_kernel) serves every field and every engine.
The brute scan (_enumerate_blocks) serves min_distance, weight_enumerator
and ``skewqc distance``: it visits (q^k - 1)/(q - 1) rows, which
``exact-deep`` checks, and a histogram needs them all.  Brouwer-Zimmermann
(min_distance_bz) serves the exact d of campaigns and catalog checks
(search._distance) when it is predicted cheaper, bz_cost(code) *
BZ_COST_RATIO against the brute scan's rows.

The brute scan serves every field.  It enumerates one representative per scalar
orbit (first nonzero message digit pinned to 1), splitting the free rows into
an inner table of q^ki precomputed combinations and an outer Gray walk; every
batch of q^ki weights is histogrammed at once, and nonzero counts are
multiplied by q - 1 at the end.  All rows come from one table of scaled
generator rows, built once per code.  Characteristic 2: e bit planes;
over GF(2^e) symbol bit b goes into plane b and weights come from
popcounts, which is what makes full 4^16 enumerations practical.  Odd p:
symbols.  Every vector, table and offset has one layout: a list of word
groups, each group's first axis holding its rows.  Over GF(2^e) there is
one group per plane word j, rows planes 0 .. e - 1, in the dtype of one
width rule (_word_dtypes): (n - 1) // 64 full uint64 words, then a last
word of the narrowest of uint8, uint32 and uint64 that holds the symbols
left, so n = 72 pays a 64-bit and an 8-bit pass per plane, not two 64-bit
ones, and n = 24 one 32-bit pass.  Over odd p there is one group, of n
symbols.  So the row table T is a list of (width, k, q) groups, an R-wide
table a list of (width, R) groups and an offset a list of (width,) groups.

The inner table is built once per code too: every combination of the last
ki rows, ki the largest value with q^ki <= INNER_TABLE_LIMIT and ki <= k - 1.
One loop walks the lead rows in order with one running histogram, best
weight and best message.  The lead row enters through the offset; the last
kl = min(ki, k - lead - 1) rows after it are the strided view of the inner
columns whose first ki - kl digits are zero, which is the table of those kl
rows; the rows in between take one scan per step of a Gray walk.

Each group of a table is stored row-major: one contiguous run of its
columns per plane word row or per symbol.  One weight kernel serves every
field and both engines: it walks the table group by group with scratch
buffers reused from batch to batch (over GF(2^e): XOR the e plane rows
with the offset's words, OR them, popcount, add; over odd p: compare with
the negated offset and count), so a row two or three words wide costs
two or three passes over contiguous memory, the last one as narrow as the
rule allows.  The exact scan calls it once per span of SCAN_SPAN = 2^15
columns of the lead's view, writing into that span of the weights, so the
kernel's scratch is one span wide: at n = 48 a Gray step then touches the
1 MiB table and 512 KiB of scratch, which stay in a 2 MiB L2 cache from one
step to the next, where table-wide scratch (1 MiB more) made every step
stream from L3.  The spans change no result: the histogram, minimum and
stop test still run on the whole step's weights.  Exact-scan weights are
counted in uint8 while n <= 255 and in uint16 above (np.min_scalar_type(n)),
and the histogram and argmin run on those counts.  A full-space Gray walk
over all q^k messages, the cross-check oracle, lives in the tests.

Budgets count candidates examined: an exact scan is priced at its q^k
messages (``exact_cost``), whether or not scalar orbits let it visit fewer,
and the price is checked against the budget (default DEFAULT_BUDGET = 2^26)
*before* any work starts (BudgetExceededError), so oversized requests fail
fast instead of hanging; ``DistanceReport.enumerated`` counts the rows
actually scanned.  ``min_distance_sampled`` draws seeded random messages and
sums each batch with _message_sums, ceil(k/c) chunk tables per message
instead of k single rows: chunk tables hold every combination of c
consecutive rows (q^c <= CHUNK_TABLE_LIMIT), built by the same filler as the
inner table, and a chunk's column is its c digits read in base q.  The
result is a reproducible upper bound for codes beyond exhaustive reach.  The
digits of a batch of b messages are exactly
``Generator.integers(0, q, (b, k), dtype=np.uint8)``: when q = 2^e they
are read straight from the generator's raw 64-bit outputs, the top e bits
of each byte (low byte first), which is what that call returns; any other q
calls it.

Brouwer-Zimmermann (Betten et al., Error-Correcting Linear Codes, ch. 1;
Grassl 2006) takes greedy disjoint information sets, each a systematic form
from RowSpace with the columns no earlier set took first.  It weighs every
message of weight 1, 2, ... in each set (first nonzero digit 1) and stops
when the lightest codeword found meets Zimmermann's bound, the sum over the
sets of max(0, w + 1 - (k - r)), r the rank of the set's fresh columns.
The walk meets in the middle: each set splits its k message digits into a
left and a right half, each with a table of every combination of its rows
(_combination_table, at most INNER_TABLE_LIMIT columns), and a weight-w
class is the pairs of a left class of weight a and a right class of weight
w - a, the left one gathered with first digit 1 (or the zero vector for
a = 0, against the right class with first digit 1).  Each pair is one call
of the weight kernel, the left class as an offset with a column axis
broadcast against the right class as the block, in chunks of at most
SCAN_SPAN cells.  When the left half is too long for a table (GF(4) at
k >= 17, say) its classes are digit batches summed through chunk tables.
Its report has method "bz", exact=True and ``enumerated`` = the codewords
weighed.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .codes import CodeStructure
from .errors import DEFAULT_BUDGET, BudgetExceededError, as_index
from .field import FieldSpec
from .linalg import RowSpace

INNER_TABLE_LIMIT = 2**16
# columns per weight-kernel call in the exact scan, and so the width of the
# kernel's scratch: at n = 48 the 1 MiB table and 512 KiB of scratch stay in
# a 2 MiB L2 from one Gray step to the next; table-wide scratch would not fit
SCAN_SPAN = 2**15
SAMPLE_BATCH = 2**14
# the time of one codeword that Brouwer-Zimmermann builds (weighed messages
# and half-table columns) over that of one brute-scan row, fitted together
# with BZ_SET_COST: (2, 2^14) gave the least summed time of the engine choice
# over the 294 candidates with k >= 4 of the s=12 l=2 trials=60 campaigns at
# seeds 3-7 and the 26 exact catalog rows (0.287 s in-process; 0.323 s with
# no set cost, 0.461 s at the earlier 64).  Measured alone a codeword cost a
# median 3.4 rows on the k >= 12 rows, where bz_cost predicts a median 1.6
# times the codewords built
BZ_COST_RATIO = 2
# what making one information set costs beyond its half tables, in
# codewords: its row reduction, packed rows and tables took 139-202 us
# (quartiles) on those campaign candidates, 10^4-10^5 of their brute rows
BZ_SET_COST = 2**14
CHUNK_TABLE_LIMIT = 2**10


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
# packed rows: a GF(2^e) symbol, sum of bit_b * 2^b, goes into e bit planes,
# where addition is XOR of every plane and the weight of a vector is the
# popcount of the OR of its planes; odd p keeps its symbols


def _word_dtypes(n: int) -> Tuple[np.dtype, ...]:
    """The width rule, one dtype per word of a bit plane of n symbols:
    (n - 1) // 64 full uint64 words, then a last word of the narrowest of
    uint8, uint32 and uint64 that holds the symbols left.  uint16 is
    skipped: its popcount is no faster than uint32's."""
    full = (n - 1) // 64
    left = n - 64 * full
    last = np.uint8 if left <= 8 else np.uint32 if left <= 32 else np.uint64
    return (np.dtype(np.uint64),) * full + (np.dtype(last),)


def pack_planes(mat: np.ndarray, e: int) -> List[np.ndarray]:
    """Pack (..., n) symbols of GF(2^e) into word groups: group j has shape
    (e, ...), row b word j of bit plane b, in dtype _word_dtypes(n)[j].

    Symbol i lands in bit i % 64 of word i // 64; all planes are packed in
    one pass by np.packbits into whole uint64 words over the symbols
    zero-padded to 64 * nw, and each word is cast to its dtype, which holds
    the symbols left in it by the width rule.
    """
    mat = np.asarray(mat, dtype=np.uint8)
    n = mat.shape[-1]
    dtypes = _word_dtypes(n)
    bits = np.zeros((e,) + mat.shape[:-1] + (64 * len(dtypes),), dtype=np.uint8)
    for b in range(e):
        bits[b, ..., :n] = (mat >> b) & 1
    words = np.packbits(bits, axis=-1, bitorder="little").view("<u8")
    return [np.ascontiguousarray(words[..., j], dtype=dt) for j, dt in enumerate(dtypes)]


def _packed_rows(F: FieldSpec, G: np.ndarray) -> Tuple[List[np.ndarray], Callable, Callable]:
    """(T, add, weights): the table T[i, lam] = lam * G[i] as word groups
    of shape (width, k, q), its addition and the weight kernel of
    _weight_kernel.

    Characteristic 2: e bit planes.  Over GF(2^e) T is pack_planes of the
    scaled rows and ``add`` is XOR.  Odd p: symbols.  T is one group, the
    n symbols of every scaled row, and ``add`` is one lookup in the
    flattened F.np_add.  ``add(a, b, out=None)`` acts elementwise on two
    groups, broadcasts and writes into ``out`` when given, so vectors and
    tables add group by group.
    """
    scaled = F.np_mul[np.arange(F.q)[None, :, None], G[:, None, :]]  # (k, q, n)
    weights = _weight_kernel(F, G.shape[1])
    if F.p != 2:
        # one flat lookup; the index a*q + b < q^2 <= 65,536 fits uint16
        flat_add, q = F.np_add.reshape(-1), F.q

        def symbol_add(a: np.ndarray, b: np.ndarray,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
            return flat_add.take(a.astype(np.uint16) * q + b, out=out)

        return [np.ascontiguousarray(scaled.transpose(2, 0, 1))], symbol_add, weights
    return pack_planes(scaled, F.degree), np.bitwise_xor, weights


def _weight_kernel(F: FieldSpec, n: int) -> Callable:
    """The one weight kernel, for tables of _packed_rows over F with n
    columns.

    ``weights(block, offset, out)`` reads an R-wide table ``block`` and a
    vector ``offset`` and writes the weight of each column of ``block +
    offset`` into ``out`` (shape (R,), any integer dtype that holds n).
    An offset may carry a column axis, groups (width, P): then ``out`` has
    shape (P, R) and its cell (p, r) is the weight of offset column p plus
    block column r, one broadcast.  Over GF(2^e) it loops over the groups:
    XOR the e plane rows with the offset's e words in one call, OR them
    into plane 0, popcount and add, all into scratch buffers, and their
    plane views, kept for every shape of ``out`` seen, all views of one
    flat buffer per dtype as wide as the widest ``out``.  Over odd p a + o
    is zero exactly when a == -o, so it counts the symbols that differ from
    -offset.
    """
    if F.p != 2:

        def symbol_weights(block: List[np.ndarray], offset: List[np.ndarray],
                           out: np.ndarray) -> None:
            o = offset[0]
            b = block[0] if o.ndim == 1 else block[0][:, None]
            np.add.reduce(b != F.np_neg[o][..., None], axis=0, dtype=out.dtype, out=out)

        return symbol_weights
    e = F.degree
    dtypes = set(_word_dtypes(n))
    flat: List = []  # [counts, {dtype: planes}], flat buffers as wide as the widest out
    scratch: Dict[Tuple[int, ...], Tuple] = {}  # out.shape -> (c, buffers), views of flat

    def weights(block: List[np.ndarray], offset: List[np.ndarray], out: np.ndarray) -> None:
        found = scratch.get(out.shape)
        if found is None:
            size, shape = out.size, out.shape
            if not flat or flat[0].shape[0] < size:
                scratch.clear()
                flat[:] = [np.empty(size, np.uint8), {dt: np.empty(e * size, dt) for dt in dtypes}]
            xys = {dt: f[: e * size].reshape((e,) + shape) for dt, f in flat[1].items()}
            found = scratch[shape] = (flat[0][:size].reshape(shape),
                                      {dt: (xy, xy[0], list(xy[1:])) for dt, xy in xys.items()})
        c, buffers = found
        for j, (words, o) in enumerate(zip(block, offset)):
            xy, x, planes = buffers[words.dtype]
            np.bitwise_xor(words if o.ndim == 1 else words[:, None], o[..., None], out=xy)
            for plane in planes:
                np.bitwise_or(x, plane, out=x)
            if j == 0:
                np.bitwise_count(x, out=out)
            else:
                np.bitwise_count(x, out=c)
                np.add(out, c, out=out)

    return weights


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


def _combination_table(rows: Tuple, first: int, count: int) -> List[np.ndarray]:
    """Table of word groups, q^count wide, of every combination of the rows
    first .. first + count - 1 of the _packed_rows table T: column u carries
    digit u % q on row first, (u // q) % q on the next, ...  Each group is
    filled in place, each row adding its nonzero multiples to the columns
    so far, as many multiples per broadcast as fill CHUNK_TABLE_LIMIT
    columns and at least one: a small table takes one call per row, and
    over odd p, whose addition is a lookup with an index of 8 bytes per
    symbol, a call on a large table writes one multiple, as it must."""
    T, add, _ = rows
    q = T[0].shape[-1]
    table = []
    for g in T:
        B = np.empty((g.shape[0], q**count), dtype=g.dtype)
        B[:, 0] = 0
        size = 1
        for r in range(first, first + count):
            step = max(1, CHUNK_TABLE_LIMIT // size)
            for lo in range(1, q, step):
                hi = min(q, lo + step)
                # column lam * size + u is column u plus lam times row r
                add(B[:, None, :size], g[:, r, lo:hi, None],
                    out=B[:, lo * size : hi * size].reshape(-1, hi - lo, size))
            size *= q
        table.append(B)
    return table


def _table_rows(q: int, limit: int, most: int) -> int:
    """How many rows a combination table of at most ``limit`` columns
    takes: the largest r <= most with q^r <= limit."""
    r = 0
    while r < most and q ** (r + 1) <= limit:
        r += 1
    return r


def _enumerate_blocks(
    F: FieldSpec, G: np.ndarray, want_hist: bool, stop_at: int = 0
) -> Tuple[Optional[np.ndarray], int, Optional[np.ndarray], int]:
    """The one exact scan, over the messages whose first nonzero digit is 1
    (see the module docstring): (histogram-or-None, best weight, best
    message, rows seen).  The rows table, ki and the inner table are made
    once; each lead scans the inner view, span by span, once per step of its
    Gray walk, and the scan returns as soon as the best weight is <= stop_at."""
    k, n = G.shape
    q = F.q
    rows = _packed_rows(F, G)
    T, add, weights = rows
    ki = _table_rows(q, INNER_TABLE_LIMIT, k - 1)
    inner = _combination_table(rows, k - ki, ki)
    hist = np.zeros(n + 1, dtype=np.int64) if want_hist else None
    best, best_msg, seen = n + 1, None, 0
    for lead in range(k):
        kl = min(ki, k - lead - 1)
        ko = k - lead - 1 - kl  # outer rows lead+1 .. lead+ko, inner rows after them
        block = [g[:, :: q ** (ki - kl)] for g in inner]
        w = np.empty(block[0].shape[1], dtype=np.min_scalar_type(n))
        spans = [([g[:, a : a + SCAN_SPAN] for g in block], w[a : a + SCAN_SPAN])
                 for a in range(0, w.shape[0], SCAN_SPAN)]
        offset = [g[:, lead, 1] for g in T]
        outer = [0] * ko
        for step in itertools.chain([None], _gray_steps(q, ko)):
            if step is not None:
                j, old, new = step
                outer[j] = new
                offset = [add(o, g[:, lead + 1 + j, F.sub[new][old]]) for o, g in zip(offset, T)]
            for span, out in spans:
                weights(span, offset, out)
            seen += w.shape[0]
            if want_hist:
                part = np.bincount(w, minlength=n + 1)
                hist[: part.shape[0]] += part
            wmin = int(w.min())
            if wmin < best:
                idx = int(np.argmin(w))
                inner_digits = [idx // q**u % q for u in range(kl)]
                best = wmin
                best_msg = np.array([0] * lead + [1] + outer + inner_digits, dtype=np.uint8)
            if best <= stop_at:
                return hist, best, best_msg, seen
    return hist, best, best_msg, seen


def _exact_scan(
    code: CodeStructure, budget: int, want_enumerator: bool, stop_at: int = 0
) -> Tuple[Optional[WeightEnumerator], DistanceReport]:
    """The one exact scan, for min_distance, weight_enumerator and ``skewqc
    distance --enumerator``: (the weight enumerator, or None if not wanted;
    the report of d, witness and rows).  Refused before any work when
    exact_cost(code) exceeds ``budget``; a zero code scans nothing."""
    F = code.spec.field
    q, k, n = F.q, code.k, code.n
    t0 = time.perf_counter()
    hist, report = (), DistanceReport(None, True, "empty", 0)  # k = 0: only the zero word
    if k:
        cost = exact_cost(code)
        if cost > budget:
            what = "weight enumeration" if want_enumerator else "distance enumeration"
            raise BudgetExceededError(f"{what} too large", cost, budget)
        hist, best, best_msg, rows = _enumerate_blocks(F, code.genmatrix, want_enumerator, stop_at)
        report = DistanceReport(int(best), stop_at < best, "blocks", rows,
                                witness=code.encode(best_msg), witness_message=best_msg)
    report.elapsed = time.perf_counter() - t0
    if not want_enumerator:
        return None, report
    counts = {w: int(c) * (q - 1) for w, c in enumerate(hist) if c}
    counts[0] = 1
    return WeightEnumerator(n, k, q, counts), report


def weight_enumerator(code: CodeStructure, budget: int = DEFAULT_BUDGET) -> WeightEnumerator:
    """Exact weight distribution of the code (sums to q^k); refused up
    front, like min_distance, when exact_cost(code) exceeds ``budget``."""
    return _exact_scan(code, budget, True)[0]


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
    return _exact_scan(code, budget, False, stop_at)[1]


def _draw_messages(rng: np.random.Generator, q: int, b: int, k: int) -> np.ndarray:
    """(b, k) uint8 digits in [0, q), bit for bit ``rng.integers(0, q, (b, k),
    dtype=np.uint8)`` and from the same ceil(b*k/4) 32-bit words of the stream.

    numpy draws bounded uint8 values by Lemire's multiply-shift method over
    the bytes of 32-bit words, low byte first; for q = 2^e it never rejects
    and keeps the top e bits of each byte, which are read here from the
    generator's raw 64-bit outputs: PCG64 hands out the low 32-bit half of
    each output first and holds the high half for the next 32-bit draw, so
    the little-endian bytes of the outputs, after any half already held, are
    those words' bytes.  An odd word count leaves the last high half held,
    as numpy does, in the generator's state.  Every batch of
    min_distance_sampled but its last draws SAMPLE_BATCH * k bytes, an even
    number of words, so only its last batch can leave a half held and
    rewrite the state.
    """
    if q & (q - 1):
        return rng.integers(0, q, size=(b, k), dtype=np.uint8)
    bg = rng.bit_generator
    state = bg.state
    held = state["has_uint32"]  # 0 or 1 words held from an earlier draw
    need = (b * k + 3) // 4 - held
    raw = bg.random_raw((need + 1) // 2).astype("<u8", copy=False)
    words = raw.view("<u4")
    if held:
        words = np.concatenate([np.array([state["uinteger"]], dtype="<u4"), words])
    if held or need % 2:
        state = bg.state
        state["has_uint32"] = need % 2
        state["uinteger"] = int(raw[-1] >> 32) if need % 2 else 0
        bg.state = state
    data = words.view(np.uint8)[: b * k]
    e = q.bit_length() - 1
    return (data >> (8 - e)).reshape(b, k)


def _chunks(q: int, k: int) -> List[Tuple[int, int]]:
    """(first row, rows) of each chunk table of _message_sums: runs of c
    rows, c the largest value with q^c <= CHUNK_TABLE_LIMIT (>= 1, as
    q <= 256), the last run shorter."""
    c = _table_rows(q, CHUNK_TABLE_LIMIT, k)
    return [(i, min(c, k - i)) for i in range(0, k, c)]


def _message_sums(rows: Tuple, count: int) -> Callable[[np.ndarray], List[np.ndarray]]:
    """sums(digits): the vectors of a batch of messages on the first
    ``count`` rows of the _packed_rows table ``rows``, as word groups of
    shape (width, b).  ``digits`` holds one contiguous row per message
    digit, shape (count, b) with b <= SAMPLE_BATCH.

    A message is summed from ceil(count/c) chunk tables, not count single
    rows: chunk tables hold every combination of c consecutive rows
    (q^c <= CHUNK_TABLE_LIMIT), built by the same filler as the inner
    table, and a chunk's column is its c digits read in base q.  The sums
    are written into scratch buffers kept from batch to batch while b stays
    the same, so they hold until the next call."""
    T, add, _ = rows
    q = T[0].shape[-1]
    # chunk (first, last, table): every combination of the rows first..last
    chunks = [(first, first + n - 1, _combination_table(rows, first, n))
              for first, n in _chunks(q, count)]
    scratch: List = []

    def sums(digits: np.ndarray) -> List[np.ndarray]:
        b = digits.shape[1]
        if not scratch or scratch[2].shape[0] != b:
            acc = [np.empty((g.shape[0], b), g.dtype) for g in chunks[0][2]]
            scratch[:] = [acc, [np.empty_like(a) for a in acc], np.empty(b, dtype=np.uint16)]
        acc, part, idx = scratch
        for first, last, table in chunks:
            # the column of this chunk's digits, by Horner's rule from its last row
            np.copyto(idx, digits[last])
            for i in range(last - 1, first - 1, -1):
                np.multiply(idx, q, out=idx)
                np.add(idx, digits[i], out=idx)
            # every index is in range; mode="clip" spares the copy that the
            # default mode="raise" makes of ``out``
            for g, a, p in zip(table, acc, part):
                if first == 0:
                    np.take(g, idx, axis=1, out=a, mode="clip")
                else:
                    np.take(g, idx, axis=1, out=p, mode="clip")
                    add(a, p, out=a)
        return acc

    return sums


def min_distance_sampled(
    code: CodeStructure,
    trials: int,
    seed: int = 0,
) -> DistanceReport:
    """Seeded random-message upper bound on the distance (exact=False)."""
    trials, seed = as_index("trials", trials), as_index("seed", seed)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    F = code.spec.field
    q, k, n = F.q, code.k, code.n
    t0 = time.perf_counter()
    if k == 0:
        return DistanceReport(None, True, "empty", 0, elapsed=time.perf_counter() - t0)
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = _packed_rows(F, code.genmatrix)
    T, _, weights = rows
    sums = _message_sums(rows, k)
    zero = [np.zeros(g.shape[0], g.dtype) for g in T]
    best = n + 1
    best_msg = None
    done = 0
    w = np.empty(0)
    while done < trials:
        b = min(SAMPLE_BATCH, trials - done)
        msgs = _draw_messages(rng, q, b, k)
        done += b
        if w.shape[0] != b:
            w = np.empty(b, dtype=np.min_scalar_type(n + 1))
        weights(sums(np.ascontiguousarray(msgs.T)), zero, w)  # one row per message digit
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


# ---------------------------------------------------------------------------
# Brouwer-Zimmermann over greedy disjoint information sets


def _batches(q: int, k: int, w: int) -> Iterator[np.ndarray]:
    """Every message of k digits of weight w >= 1 whose first nonzero digit
    is 1, as digit batches of shape (k, b), b <= SAMPLE_BATCH: the supports
    in lexicographic order (itertools.combinations), and on each support
    the (q - 1)^(w - 1) values of the other digits, the second digit
    fastest."""
    values = (q - 1) ** (w - 1)
    place = (q - 1) ** np.arange(w - 1, dtype=np.int64)
    per_batch = max(1, SAMPLE_BATCH // values)  # supports per batch
    supports = itertools.combinations(range(k), w)
    while True:
        pos = np.array(list(itertools.islice(supports, per_batch)), dtype=np.intp).reshape(-1, w)
        if not pos.shape[0]:
            return
        for u0 in range(0, values, SAMPLE_BATCH):
            u = np.arange(u0, min(values, u0 + SAMPLE_BATCH), dtype=np.int64)
            vals = np.ones((u.shape[0], w), dtype=np.uint8)
            vals[:, 1:] = u[:, None] // place % (q - 1) + 1
            b = pos.shape[0] * u.shape[0]
            digits = np.zeros((k, b), dtype=np.uint8)
            cols = np.arange(b)
            at = np.repeat(pos, u.shape[0], axis=0)
            val = np.tile(vals, (pos.shape[0], 1))
            for t in range(w):
                digits[at[:, t], cols] = val[:, t]
            yield digits


def _bz_bound(k: int, ranks: Sequence[int], done: Sequence[int]) -> int:
    """Zimmermann's lower bound on the weight of any codeword not yet seen,
    once set i has weighed every message of weight <= done[i]: the sum of
    max(0, done[i] + 1 - (k - r_i)).  Such a codeword has more than done[i]
    nonzero digits on set i's pivots, so at least done[i] + 1 - (k - r_i)
    on the r_i of them that no earlier set took, and those columns are
    disjoint from set to set."""
    return sum(max(0, w + 1 - (k - r)) for r, w in zip(ranks, done))


def _bz_steps(k: int, n: int, next_set: Callable[[int], int]) -> Iterator[Tuple]:
    """The order of the walk: (set, weights to weigh there, ranks, weights
    done per set after them).  Weight w = 1, 2, ... k goes over the sets in
    order.  A set waits while w < k - r, where it would add nothing to the
    bound, and on its first turn weighs every weight up to w, as the bound
    needs.  Sets are made as the walk comes to need them: the next one,
    ``next_set(left)`` with ``left`` columns not yet taken and returning its
    rank r, once w >= k - min(k, left), the earliest weight at which it can
    add to the bound; none after a set of rank 0."""
    ranks: List[int] = []
    done: List[int] = []
    left = n
    for w in range(1, k + 1):
        while left and w >= k - min(k, left):
            r = next_set(left)
            if not r:
                left = 0
                break
            ranks.append(r)
            done.append(0)
            left -= r
        for i, r in enumerate(ranks):
            if w >= k - r:
                todo = range(done[i] + 1, w + 1)
                done[i] = w
                yield i, todo, ranks, done


def _halves(q: int, k: int) -> Tuple[int, int]:
    """(left, right): Brouwer-Zimmermann splits the k message digits into
    the first ``left`` and the last ``right``, right = ceil(k/2) while
    q^right <= INNER_TABLE_LIMIT and fewer otherwise."""
    right = _table_rows(q, INNER_TABLE_LIMIT, (k + 1) // 2)
    return k - right, right


@functools.lru_cache(maxsize=256)
def _weight_class(q: int, count: int, a: int, first_one: bool) -> Tuple[np.ndarray, np.ndarray]:
    """(columns, digits): the columns of a q^count-wide combination table
    whose digits have weight a >= 1 (and whose first nonzero digit is 1
    when ``first_one``), ascending, and their digits, shape (count, P).
    Made once per (q, count, a, first_one) and kept, read only."""
    u = np.arange(q**count)
    digits = np.stack([u // q**r % q for r in range(count)]).astype(np.uint8)
    nonzero = digits != 0
    keep = nonzero.sum(axis=0) == a
    if first_one:
        keep &= digits[nonzero.argmax(axis=0), u] == 1
    columns = np.flatnonzero(keep)
    picked = digits[:, columns]
    columns.flags.writeable = picked.flags.writeable = False
    return columns, picked


def _class_pairs(F: FieldSpec, S: np.ndarray) -> Callable[[int], Iterator[Tuple]]:
    """pairs(w) for one information set's systematic form S: every message
    of weight w whose first nonzero digit is 1, once, as (offset, left
    digits, block, right digits).

    The digits split into halves (_halves).  The right half's messages come
    from a table of every combination of its rows, the left half's from
    another while q^left <= INNER_TABLE_LIMIT, and from _batches summed
    through chunk tables (_message_sums) beyond.  A weight-w message is a
    pair of weight a on the left and w - a on the right: for a > 0 the left
    class a with first digit 1 against the whole right class w - a, for
    a = 0 the zero vector against the right class w with first digit 1.
    The offset holds the left class as word groups (width, P), the block
    the right class as groups (width, R), and the digits are (left, P) and
    (right, R).  A class is gathered from its table when first asked for
    and kept for the next weight."""
    q, k = F.q, S.shape[0]
    left, right = _halves(q, k)
    rows = _packed_rows(F, S)
    T = rows[0]
    zero = [np.zeros((g.shape[0], 1), g.dtype) for g in T]
    zero_left, zero_right = (np.zeros((count, 1), np.uint8) for count in (left, right))
    tables = [_combination_table(rows, 0, left) if q**left <= INNER_TABLE_LIMIT else None,
              _combination_table(rows, left, right)]
    sums = _message_sums(rows, left) if tables[0] is None else None
    gathered: Dict[Tuple[int, int, bool], Tuple] = {}

    def weight_class(side: int, a: int, first_one: bool) -> Tuple:
        key = (side, a, first_one)
        if key not in gathered:
            columns, digits = _weight_class(q, (left, right)[side], a, first_one)
            gathered[key] = ([np.take(g, columns, axis=1) for g in tables[side]], digits)
        return gathered[key]

    def pairs(w: int) -> Iterator[Tuple]:
        for a in range(max(0, w - right), min(left, w) + 1):
            block, right_digits = weight_class(1, w - a, a == 0) if w > a else (zero, zero_right)
            if a == 0:
                yield zero, zero_left, block, right_digits
            elif sums is None:
                yield weight_class(0, a, True) + (block, right_digits)
            else:
                for digits in _batches(q, left, a):
                    yield sums(digits), digits, block, right_digits

    return pairs


def _brouwer_zimmermann(
    F: FieldSpec, G: np.ndarray, limit: int
) -> Optional[Tuple[int, np.ndarray, int]]:
    """Exact minimum distance of the full-rank (k, n) matrix G by
    Brouwer-Zimmermann: (d, message, codewords examined), the message in
    the basis of the reduced form of G, or None as soon as a class pair
    would take the count past ``limit``.

    The information sets are greedy and disjoint.  Each one row-reduces G
    with the columns that no earlier set took first (RowSpace's ``order``),
    so r of its k pivots land among them and the other k - r among the
    columns already taken; its systematic form S is the identity on its
    pivots, in the original coordinates.  The first set takes the columns
    left to right, so its S is the reduced form of G (G itself when G is
    reduced, as genmatrix is).  The walk follows _bz_steps; a weight is
    weighed as the class pairs of _class_pairs, each one broadcast of the
    weight kernel over the left class times the right class, in chunks of
    at most SCAN_SPAN cells.  After each step the scan stops once the
    lightest codeword found meets _bz_bound.  The first set has r = k, so
    at w = k it has seen every codeword."""
    k, n = G.shape
    rows = [bytes(r) for r in G]
    fresh = list(range(n))
    sets: List[Tuple[np.ndarray, List[int], Callable]] = []  # (S, pivots, pairs)

    def next_set(left: int) -> int:
        taken = set(fresh)
        space = RowSpace(F, rows, fresh + [c for c in range(n) if c not in taken])
        r = sum(c in taken for c in space.pivots)  # the first r pivots
        if r:
            S = np.frombuffer(b"".join(space.rows()), dtype=np.uint8).reshape(k, n)
            sets.append((S, space.pivots, _class_pairs(F, S)))
            used = set(space.pivots[:r])
            fresh[:] = [c for c in fresh if c not in used]
        return r

    best, best_at, seen = n + 1, None, 0
    weights = _weight_kernel(F, n)
    cells = np.empty(SCAN_SPAN, dtype=np.min_scalar_type(n))
    for i, todo, ranks, done in _bz_steps(k, n, next_set):
        for w in todo:
            for offset, left_digits, block, right_digits in sets[i][2](w):
                P, R = left_digits.shape[1], right_digits.shape[1]
                if seen + P * R > limit:
                    return None
                seen += P * R
                per, span = max(1, SCAN_SPAN // R), min(R, SCAN_SPAN)
                for p0 in range(0, P, per):
                    o = [g[:, p0 : p0 + per] for g in offset]
                    for r0 in range(0, R, span):
                        b = [g[:, r0 : r0 + span] for g in block]
                        out = cells[: o[0].shape[1] * b[0].shape[1]].reshape(o[0].shape[1], -1)
                        weights(b, o, out)
                        j = int(np.argmin(out))
                        if out.flat[j] < best:
                            p, r = divmod(j, out.shape[1])
                            best = int(out.flat[j])
                            best_at = (i, np.concatenate([left_digits[:, p0 + p],
                                                          right_digits[:, r0 + r]]))
        if best <= _bz_bound(k, ranks, done):
            break
    i, message = best_at
    word = np.zeros(n, dtype=np.uint8)
    for c, row in zip(message, sets[i][0]):
        if c:
            word = F.np_add[word, F.np_mul[c][row]]
    return best, word[sets[0][1]], seen


def bz_cost(code: CodeStructure) -> int:
    """Codewords that Brouwer-Zimmermann is predicted to build on ``code``,
    from n, k, q and the lightest genmatrix row alone, before any work:
    the messages it weighs, the columns of each set's half tables (the
    left half's chunk tables when it has no table) and BZ_SET_COST per set.
    Every set is taken to have the largest rank it can, min(k, columns
    left), and the walk (_bz_steps) to run until its bound reaches that
    row's weight.  0 for a zero code."""
    F, k, n = code.spec.field, code.k, code.n
    if not k:
        return 0
    q = F.q
    upper = int(np.count_nonzero(code.genmatrix, axis=1).min())
    left, right = _halves(q, k)
    per_set = BZ_SET_COST + q**right + (q**left if q**left <= INNER_TABLE_LIMIT
                                        else sum(q**count for _, count in _chunks(q, left)))
    cost = 0
    for _, todo, ranks, done in _bz_steps(k, n, lambda left: min(k, left)):
        cost += sum(math.comb(k, w) * (q - 1) ** (w - 1) for w in todo)
        if todo.start == 1:  # the set's first turn: making it
            cost += per_set
        if _bz_bound(k, ranks, done) >= upper:
            break
    return cost


def min_distance_bz(code: CodeStructure, limit: int) -> Optional[DistanceReport]:
    """Exact minimum distance with a witness by Brouwer-Zimmermann
    (method "bz"; ``enumerated`` counts the codewords weighed), or None
    when it would weigh more than ``limit`` codewords.  ``limit`` must be
    a nonnegative integer (ValueError otherwise)."""
    limit = as_index("limit", limit)
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    F, k = code.spec.field, code.k
    t0 = time.perf_counter()
    if k == 0:
        return DistanceReport(None, True, "empty", 0, elapsed=time.perf_counter() - t0)
    found = _brouwer_zimmermann(F, code.genmatrix, limit)
    if found is None:
        return None
    d, message, seen = found
    return DistanceReport(d, True, "bz", seen, witness=code.encode(message),
                          witness_message=message, elapsed=time.perf_counter() - t0)
