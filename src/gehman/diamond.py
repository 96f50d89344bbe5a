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
    _spectrum,
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
        super().__init__(label or f"diamond({a.label},{b.label})")

    def _extend_to(self, n: int) -> None:
        # the buffer ends on a block edge; blocks from there to n's, in one pass
        first = position_decode(len(self._buf) + 1).block
        last = position_decode(n).block
        a = self.first.array(last)
        b = self.second.array(last)
        end = last * (last + 1)
        _blocks(a, b, first, last, out=self._reserve(end))
        self._commit(end)

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
        it holds them); the tail is packed from the last segment.  When
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
        return _spectrum(n, values, counts, rest)

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


def _window(
    a: SymbolStream, b: SymbolStream, n: int, horizon: int, tail_start: int | None,
    min_count: int, source_horizon: int, subject: SymbolStream | None,
) -> tuple[dict, set[str] | None]:
    """An inclusion check's params and the recurrent n-words of ``subject``
    (default DiamondStream(a, b)) beyond tail_start (default horizon // 100),
    or None for the words when the tail or the source window is shorter than n."""
    if tail_start is None:
        tail_start = horizon // 100
    params = dict(n=n, horizon=horizon, tail_start=tail_start, min_count=min_count,
                  source_horizon=source_horizon)
    if tail_start + n > horizon or source_horizon < n:
        return params, None
    if subject is None:
        subject = DiamondStream(a, b)
    return params, recurrent_factors(subject, n, horizon, tail_start, min_count)


def omega_lower_check(
    a: SymbolStream,
    b: SymbolStream,
    n: int,
    horizon: int,
    tail_start: int | None = None,
    min_count: int = 5,
    source_horizon: int = 10_000,
    subject: SymbolStream | None = None,
) -> InclusionReport:
    """Check that every source factor recurs in the interleaved tail.

    Every length-n factor of ``a`` and of ``b`` (within source_horizon)
    must appear at least min_count times beyond tail_start in
    ``subject`` (default DiamondStream(a, b)) over the horizon.  A
    caller that holds the interleaving already passes it, so its symbols
    and factor spectrum are reused.
    """
    params, seen = _window(a, b, n, horizon, tail_start, min_count, source_horizon, subject)
    if seen is None:
        return InclusionReport(status="insufficient horizon", params=params)
    wanted = factors(a, n, source_horizon) | factors(b, n, source_horizon)
    missing = sorted(wanted - seen)
    return InclusionReport(
        status="pass" if not missing else "fail",
        violations=missing,
        params=params,
    )


# The closure cases of a word w against sources a and b, in first-match
# order: w is a factor of a; w is a factor of b; w = u v with u a factor of
# a and v a prefix of b; w = u v with u a factor of b and v a prefix of a.
_CASES = ("a-side", "b-side", "crossover-ab", "crossover-ba")


def crossover_split(
    w: str,
    a: SymbolStream,
    b: SymbolStream,
    source_horizon: int,
) -> str | None:
    """The closure case of a word against two source streams.

    Returns the first of ``_CASES`` that w meets within source_horizon,
    taking the split points w = u v in increasing order of len(u) and
    both crossovers at each, or None when none matches.
    """
    if not w or any(c not in "01" for c in w):
        raise ValueError("w must be a nonempty 0/1 word")
    return _closure_table(a, b, len(w), source_horizon).get(w)


def _closure_table(a: SymbolStream, b: SymbolStream, n: int, horizon: int) -> dict:
    """Closure case of every length-n word the sources explain, filled in
    :func:`crossover_split`'s first-match order; a word keeps its first case."""
    a_side, b_side, ab, ba = _CASES
    # longest first: every shorter length is read off the n-spectrum
    a_langs = {m: factors(a, m, horizon) for m in range(n, 0, -1)}
    b_langs = {m: factors(b, m, horizon) for m in range(n, 0, -1)}
    a_word, b_word = a.word(n), b.word(n)
    steps = [(a_side, a_langs[n], ""), (b_side, b_langs[n], "")]
    for cut in range(1, n):
        steps.append((ab, a_langs[cut], b_word[:n - cut]))
        steps.append((ba, b_langs[cut], a_word[:n - cut]))
    table = {}
    for case, heads, tail in steps:
        for u in heads:
            table.setdefault(u + tail, case)
    return table


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
    words are violations.  ``subject`` serves negative controls, and it
    lets a caller that holds the interleaving reuse its symbols and
    window spectrum, as ``cmd_diamond`` does with x_s.
    """
    params, words = _window(a, b, n, horizon, tail_start, min_count, source_horizon, subject)
    if words is None:
        return InclusionReport(status="insufficient horizon", params=params)
    table = _closure_table(a, b, n, source_horizon)
    counts = dict.fromkeys(_CASES, 0)
    violations = []
    for w in sorted(words):
        case = table.get(w)
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
