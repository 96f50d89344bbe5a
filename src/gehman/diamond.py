"""The diamond interleaving of two streams and its position arithmetic.

``DiamondStream(a, b)`` lays out blocks a_1 b_1, a_1 a_2 b_1 b_2, ... :
block k is the length-k prefix of ``a`` followed by the length-k prefix
of ``b``.  Block k occupies global positions k(k-1)+1 .. k(k+1)
(1-based), which gives O(1) random access through an integer square
root.  Window spectra are counted from the blocks, without writing the
stream out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import NamedTuple

import numpy as np

from gehman.coding import (
    SymbolStream,
    _array_spectrum,
    _packed_windows,
    _Spectrum,
    _tally,
    factors,
    recurrent_factors,
)


class DecodedPosition(NamedTuple):
    source: str  # "A" or "B"
    block: int
    offset: int  # 1-based position within the source prefix


def position_decode(i: int) -> DecodedPosition:
    """Map global position i (1-based) to its source, block, and offset.

    Block k is the unique k with k(k-1) < i <= k(k+1); the first k
    positions of the block replay a_1..a_k, the rest b_1..b_k.
    """
    if i < 1:
        raise ValueError("positions are 1-based")
    k = isqrt(i)
    if i > k * (k + 1):
        k += 1
    j = i - k * (k - 1)
    if j <= k:
        return DecodedPosition("A", k, j)
    return DecodedPosition("B", k, j - k)


def block_start(k: int) -> int:
    """Shift offset that opens block k: shifting by k(k-1) makes the
    next k symbols equal a_1..a_k."""
    if k < 1:
        raise ValueError("blocks are 1-based")
    return k * (k - 1)


def _blocks(a: np.ndarray, b: np.ndarray, first: int, last: int, out=None) -> np.ndarray:
    """Blocks first..last of the interleaving, from source prefixes a, b."""
    parts = [p for k in range(first, last + 1) for p in (a[:k], b[:k])]
    return np.concatenate(parts, out=out)


class DiamondStream(SymbolStream):
    """Interleaving a_1 b_1 a_1 a_2 b_1 b_2 ... of two source streams."""

    def __init__(self, a: SymbolStream, b: SymbolStream, label: str | None = None):
        self.first = a
        self.second = b
        self._next_block = 1
        super().__init__(label or f"diamond({a.label},{b.label})")

    def _extend_to(self, n: int) -> None:
        # blocks up to the one holding position n, written in one pass
        last = position_decode(n).block
        a = self.first.array(last)
        b = self.second.array(last)
        end = last * (last + 1)
        _blocks(a, b, self._next_block, last, out=self._reserve(end))
        self._commit(end)
        self._next_block = last + 1

    def _segment(self, a: np.ndarray, b: np.ndarray, lo: int, hi: int) -> np.ndarray:
        # symbols lo+1..hi: a slice of the buffer when it holds them,
        # else cut from the blocks that cover them
        if len(self._buf) >= hi or lo >= hi:
            return self._buf[lo:hi]
        first = position_decode(lo + 1).block
        start = block_start(first)
        return _blocks(a, b, first, position_decode(hi).block)[lo - start:hi - start]

    def _window_spectrum(self, n: int, horizon: int, tail_start: int) -> _Spectrum:
        """Window spectrum of symbols tail_start+1..horizon, from the blocks.

        Block k is a[:k] b[:k] (0-based slices).  For k >= n, the n
        windows that start in block k are the a-windows a[j:j+n] and the
        b-windows b[j:j+n] with j + n <= k, and 2(n-1) crossovers: for
        L = 1..n-1, the last L symbols of a[:k] then b[:n-L], and the
        last L symbols of b[:k] then a[:n-L], which opens block k+1.  So
        over the blocks k_lo..k_hi, with k_lo = max(n, the first block
        that starts at or after tail_start) and k_hi the last block
        whose windows all end by the horizon (k(k+1) + n - 1 <= horizon),
        the a-window at j occurs k_hi - max(k_lo, j+n) + 1 times, and so
        does the b-window at j.  A crossover of block k is the low L bits
        of the packed a-window (b-window) that ends at k, shifted left by
        n-L, ORed with the packed b-prefix (a-prefix) of length n-L.

        The windows that start before block k_lo or after block k_hi are
        packed from raw segments of the interleaving, cut from the same
        blocks :meth:`_extend_to` writes (or sliced from the buffer when
        it holds them); the last segment also gives ``tail``.  When
        k_hi < k_lo the whole range is packed raw.  The sources are
        asked for the prefix that ``array(horizon)`` asks them for, so a
        short or colliding source raises the same error.  The weighted
        values are merged by one :func:`_tally`.
        """
        if horizon < 1:
            return super()._window_spectrum(n, horizon, tail_start)
        last = position_decode(horizon).block
        a = self.first.array(last)
        b = self.second.array(last)
        k_lo = max(n, isqrt(max(tail_start, 1)))
        while block_start(k_lo) < tail_start:
            k_lo += 1
        edge = horizon - n + 1
        k_hi = isqrt(max(edge, 0))
        if k_hi * (k_hi + 1) > edge:
            k_hi -= 1
        if k_hi < k_lo:
            return _array_spectrum(self._segment(a, b, tail_start, horizon), n)
        aw = _packed_windows(a[:k_hi], n)
        bw = _packed_windows(b[:k_hi], n)
        j = np.arange(aw.size)
        weight = k_hi + 1 - np.maximum(k_lo, j + n)
        cut = np.arange(1, n, dtype=np.uint64)
        mask = (np.uint64(1) << cut) - np.uint64(1)
        left = np.uint64(n) - cut
        ends = slice(k_lo - n, k_hi - n + 1)
        ab = ((aw[ends, None] & mask) << left) | (bw[0] >> cut)
        ba = ((bw[ends, None] & mask) << left) | (aw[0] >> cut)
        head = self._segment(a, b, tail_start, block_start(k_lo) + n - 1)
        rest = self._segment(a, b, k_hi * (k_hi + 1), horizon)
        once = [_packed_windows(head, n), ab.ravel(), ba.ravel(), _packed_windows(rest, n)]
        values = np.concatenate([aw, bw, *once])
        ones = np.ones(sum(w.size for w in once), dtype=weight.dtype)
        values, counts = _tally(values, np.concatenate([weight, weight, ones]))
        tail = rest[rest.shape[0] - n + 1:].copy()
        return _Spectrum(n, values, counts, tail)

    def symbol(self, i: int) -> int:
        # O(1) index arithmetic plus one source lookup; the memoized
        # prefix is bypassed on purpose.
        src, _, j = position_decode(i)
        stream = self.first if src == "A" else self.second
        return stream.symbol(j)


# -- omega-limit inclusion checks -----------------------------------------


@dataclass
class InclusionReport:
    """Outcome of one finite inclusion check.

    ``status`` is "pass", "fail", or "insufficient horizon"; violating
    words (missing or unclassified) are listed explicitly.
    """

    status: str
    violations: list[str] = field(default_factory=list)
    case_counts: dict[str, int] = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def omega_lower_check(
    a: SymbolStream,
    b: SymbolStream,
    n: int,
    horizon: int,
    tail_start: int | None = None,
    min_count: int = 5,
    source_horizon: int | None = None,
    subject: SymbolStream | None = None,
) -> InclusionReport:
    """Check that every source factor recurs in the interleaved tail.

    Every length-n factor of ``a`` and of ``b`` (within source_horizon)
    must appear at least min_count times beyond tail_start in
    ``subject`` (default DiamondStream(a, b)) over the horizon.  A
    caller that holds the interleaving already passes it, so its symbols
    and factor spectrum are reused.
    """
    if tail_start is None:
        tail_start = horizon // 100
    if source_horizon is None:
        source_horizon = tail_start
    params = {
        "n": n,
        "horizon": horizon,
        "tail_start": tail_start,
        "min_count": min_count,
        "source_horizon": source_horizon,
    }
    if tail_start + n > horizon or source_horizon < n:
        return InclusionReport(status="insufficient horizon", params=params)
    if subject is None:
        subject = DiamondStream(a, b)
    wanted = factors(a, n, source_horizon) | factors(b, n, source_horizon)
    seen = recurrent_factors(subject, n, horizon, tail_start, min_count)
    missing = sorted(wanted - seen)
    return InclusionReport(
        status="pass" if not missing else "fail",
        violations=missing,
        params=params,
    )


def crossover_split(
    w: str,
    a: SymbolStream,
    b: SymbolStream,
    source_horizon: int,
) -> str | None:
    """Four-case membership of a word against two source streams.

    Returns "a-side" / "b-side" when w is a factor of the respective
    source, "crossover-ab" when w = u v with u a factor of a and v a
    prefix of b, "crossover-ba" for the symmetric split, or None when
    nothing matches within source_horizon.
    """
    if not w or any(c not in "01" for c in w):
        raise ValueError("w must be a nonempty 0/1 word")
    n = len(w)
    return _classify_word(
        w,
        _factor_tables(a, n, source_horizon),
        _factor_tables(b, n, source_horizon),
        a.word(n),
        b.word(n),
    )


def _factor_tables(x: SymbolStream, n: int, horizon: int) -> dict[int, set[str]]:
    # longest first: every shorter length is read off the n-spectrum
    return {m: factors(x, m, horizon) for m in range(n, 0, -1)}


def _classify_word(
    w: str,
    a_tables: dict[int, set[str]],
    b_tables: dict[int, set[str]],
    a_word: str,
    b_word: str,
) -> str | None:
    n = len(w)
    if w in a_tables[n]:
        return "a-side"
    if w in b_tables[n]:
        return "b-side"
    for cut in range(1, n):
        u, v = w[:cut], w[cut:]
        if u in a_tables[cut] and b_word.startswith(v):
            return "crossover-ab"
        if u in b_tables[cut] and a_word.startswith(v):
            return "crossover-ba"
    return None


def omega_upper_check(
    a: SymbolStream,
    b: SymbolStream,
    n: int,
    horizon: int,
    tail_start: int | None = None,
    min_count: int = 5,
    source_horizon: int = 10_000,
    subject: SymbolStream | None = None,
) -> InclusionReport:
    """Check that every recurrent factor of the interleaving is explained.

    Each recurrent length-n word of ``subject`` (default DiamondStream(a, b))
    must be an a-factor, a b-factor, or a crossover split; unexplained
    words are violations.  ``subject`` exists for negative controls.
    """
    if tail_start is None:
        tail_start = horizon // 100
    params = {
        "n": n,
        "horizon": horizon,
        "tail_start": tail_start,
        "min_count": min_count,
        "source_horizon": source_horizon,
    }
    if tail_start + n > horizon or source_horizon < n:
        return InclusionReport(status="insufficient horizon", params=params)
    if subject is None:
        subject = DiamondStream(a, b)
    words = recurrent_factors(subject, n, horizon, tail_start, min_count)
    a_tables = _factor_tables(a, n, source_horizon)
    b_tables = _factor_tables(b, n, source_horizon)
    a_word = a.word(n)
    b_word = b.word(n)
    counts = {"a-side": 0, "b-side": 0, "crossover-ab": 0, "crossover-ba": 0}
    violations = []
    for w in sorted(words):
        case = _classify_word(w, a_tables, b_tables, a_word, b_word)
        if case is None:
            violations.append(w)
        else:
            counts[case] += 1
    return InclusionReport(
        status="pass" if not violations else "fail",
        violations=violations,
        case_counts=counts,
        params=params,
    )
