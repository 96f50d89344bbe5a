"""The diamond interleaving of two streams and its position arithmetic.

``diamond(a, b)`` lays out blocks a_1 b_1, a_1 a_2 b_1 b_2, ... : block k
is the length-k prefix of ``a`` followed by the length-k prefix of ``b``.
Block k occupies global positions k(k-1)+1 .. k(k+1) (1-based), which
gives O(1) random access through an integer square root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import NamedTuple

import numpy as np

from gehman.coding import SymbolStream, factors, recurrent_factors


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


class DiamondStream(SymbolStream):
    """Interleaving a_1 b_1 a_1 a_2 b_1 b_2 ... of two source streams."""

    def __init__(self, a: SymbolStream, b: SymbolStream, label: str | None = None):
        self.first = a
        self.second = b
        self._next_block = 1
        super().__init__(label or f"diamond({a.label},{b.label})")

    def _extend_to(self, n: int) -> None:
        # blocks up to the one holding position n, in one append
        last = position_decode(n).block
        a = self.first.array(last)
        b = self.second.array(last)
        blocks = range(self._next_block, last + 1)
        self._append(np.concatenate([p for k in blocks for p in (a[:k], b[:k])]))
        self._next_block = last + 1

    def symbol(self, i: int) -> int:
        # O(1) index arithmetic plus one source lookup; the memoized
        # prefix is bypassed on purpose.
        src, _, j = position_decode(i)
        stream = self.first if src == "A" else self.second
        return stream.symbol(j)


def diamond(a: SymbolStream, b: SymbolStream) -> DiamondStream:
    """The interleaved stream a ⋄ b."""
    return DiamondStream(a, b)


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
    ``subject`` (default diamond(a, b)) over the horizon.  A caller that
    holds the interleaving already passes it, so its symbols and factor
    spectrum are reused.
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
        subject = diamond(a, b)
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
        a.prefix(n),
        b.prefix(n),
    )


def _factor_tables(x: SymbolStream, n: int, horizon: int) -> dict[int, set[str]]:
    # longest first: every shorter length is read off the n-spectrum
    return {m: factors(x, m, horizon) for m in range(n, 0, -1)}


def _classify_word(
    w: str,
    a_tables: dict[int, set[str]],
    b_tables: dict[int, set[str]],
    a_prefix: bytes,
    b_prefix: bytes,
) -> str | None:
    n = len(w)
    wb = bytes(int(c) for c in w)
    if w in a_tables[n]:
        return "a-side"
    if w in b_tables[n]:
        return "b-side"
    for cut in range(1, n):
        u, v = w[:cut], w[cut:]
        if u in a_tables[cut] and wb[cut:] == b_prefix[: n - cut]:
            return "crossover-ab"
        if u in b_tables[cut] and wb[cut:] == a_prefix[: n - cut]:
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

    Each recurrent length-n word of ``subject`` (default diamond(a, b))
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
        subject = diamond(a, b)
    words = recurrent_factors(subject, n, horizon, tail_start, min_count)
    a_tables = _factor_tables(a, n, source_horizon)
    b_tables = _factor_tables(b, n, source_horizon)
    a_prefix = a.prefix(n)
    b_prefix = b.prefix(n)
    counts = {"a-side": 0, "b-side": 0, "crossover-ab": 0, "crossover-ba": 0}
    violations = []
    for w in sorted(words):
        case = _classify_word(w, a_tables, b_tables, a_prefix, b_prefix)
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
