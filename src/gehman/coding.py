"""Rotation itineraries and finite-word machinery.

Streams are infinite binary words with a memoized prefix.  A rotation
coding tracks the orbit of a start point under an irrational rotation
and records which cell of {[0,1/4), [1/4,1)} each orbit point visits.
Symbol indices are 1-based in every public contract (symbol i describes
the orbit point after i-1 rotation steps); internal buffers are 0-based
uint8 arrays.

Generation is exact: a fast floating screen classifies points safely in
the interior of a cell, and every point that lands near a cell boundary
is re-checked with integer arithmetic.  An orbit point that hits 0 or
1/4 exactly raises :class:`CutPointCollision` instead of silently
picking a side.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Union

import numpy as np

from gehman.exactnum import QuadSurd, mod1, rotate, surd_sign_int

# Float screen half-width, as a fraction of the circle. Any point whose
# float image lies this close to a cell boundary is re-decided exactly;
# float error is ~1e-15 so no misclassification can slip through.
_GUARD = 1e-7

_CHUNK = 1 << 15


class CutPointCollision(Exception):
    """An orbit point hit a cut point {0, 1/4} exactly.

    ``index`` is the 1-based symbol index whose orbit point collided.
    """

    def __init__(self, index: int, point_repr: str = ""):
        self.index = index
        detail = f" (point {point_repr})" if point_repr else ""
        super().__init__(f"cut-point collision at symbol index {index}{detail}")


class SymbolStream:
    """Infinite binary word with a growable memoized prefix.

    Symbols live in one append-only uint8 store; ``_buf`` is the
    read-only view of the symbols made so far, and subclasses generate
    by handing chunks to :meth:`_append`.  ``_spectra`` memoizes the
    factor machinery: for each (horizon, tail_start) the window spectrum
    at the longest factor length asked so far.
    """

    def __init__(self, label: str = "stream"):
        self._store = np.empty(0, dtype=np.uint8)
        self._buf = self._store[:0]
        self._buf.flags.writeable = False
        self._spectra: dict[tuple[int, int], _Spectrum] = {}
        self.label = label

    def _extend_to(self, n: int) -> None:
        raise NotImplementedError

    def _append(self, chunk) -> None:
        # Grows the store geometrically; a view handed out earlier keeps
        # the old store, whose symbols never change.
        size = len(self._buf)
        end = size + len(chunk)
        if end > self._store.shape[0]:
            store = np.empty(max(end, 2 * size), dtype=np.uint8)
            store[:size] = self._buf
            self._store = store
        self._store[size:end] = np.frombuffer(chunk, dtype=np.uint8)
        self._buf = self._store[:end]
        self._buf.flags.writeable = False

    def array(self, n: int) -> np.ndarray:
        """First n symbols as a read-only uint8 view, without a copy."""
        if n < 0:
            raise ValueError("prefix length must be nonnegative")
        if len(self._buf) < n:
            self._extend_to(n)
        return self._buf[:n]

    def prefix(self, n: int) -> bytes:
        """First n symbols as raw bytes with values 0/1."""
        return self.array(n).tobytes()

    def word(self, n: int) -> str:
        """First n symbols as a 0/1 text word."""
        return (self.array(n) + ord("0")).tobytes().decode("ascii")

    def symbol(self, i: int) -> int:
        """Symbol at 1-based index i."""
        if i < 1:
            raise ValueError("symbol indices are 1-based")
        return int(self.array(i)[i - 1])

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label}>"


class RotationCoding(SymbolStream):
    """Itinerary of ``start`` under rotation by irrational ``alpha``.

    Symbol i is 0 iff the orbit point after i-1 steps lies in [0, 1/4).
    State is kept as integers over one common denominator so each step
    is two integer adds plus a reduction test.
    """

    def __init__(self, start, alpha, label: str | None = None):
        start_q = QuadSurd._coerce(start)
        alpha_q = QuadSurd._coerce(alpha)
        if start_q is None or alpha_q is None:
            raise TypeError("start and alpha must be QuadSurd or rational")
        alpha_q = mod1(alpha_q)
        if alpha_q.is_rational:
            raise ValueError("rotation angle must be irrational")
        start_q = mod1(start_q)
        start_q + alpha_q  # raises MixedFieldError on a genuine field mix
        self.alpha = alpha_q
        self.start = start_q
        d = alpha_q.d if start_q.is_rational else start_q.d
        m = math.lcm(
            start_q.a.denominator,
            start_q.b.denominator,
            alpha_q.a.denominator,
            alpha_q.b.denominator,
        )
        self._d = d
        self._den = m
        self._u0 = int(start_q.a * m)
        self._v0 = int(start_q.b * m)
        self._du = int(alpha_q.a * m)
        self._dv = int(alpha_q.b * m)
        # Reduced integer state for the scalar path: (u + v*sqrt(d))/m.
        self._u = self._u0
        self._v = self._v0
        self._steps = 0
        super().__init__(label or f"pt:{start_q}@{alpha_q}")

    # -- exact point access ---------------------------------------------

    def orbit_point(self, i: int) -> QuadSurd:
        """Exact circle point producing symbol i (1-based)."""
        if i < 1:
            raise ValueError("symbol indices are 1-based")
        k = i - 1
        return mod1(
            QuadSurd(
                self.start.a + k * self.alpha.a,
                self.start.b + k * self.alpha.b,
                self._d,
            )
        )

    def _exact_symbol(self, idx0: int) -> int:
        # idx0 is 0-based; collision raised with the 1-based index.
        p = self.orbit_point(idx0 + 1)
        if p.sign() == 0:
            raise CutPointCollision(idx0 + 1, str(p))
        q = (p - Fraction(1, 4)).sign()
        if q == 0:
            raise CutPointCollision(idx0 + 1, str(p))
        return 0 if q < 0 else 1

    # -- generation -------------------------------------------------------

    def _float_bound_ok(self, n: int) -> bool:
        # The vector screen computes u0 + i*du + (v0 + i*dv)*sqrt(d) in
        # float64; demand the magnitude stays well under 2^52 so the
        # integer parts are represented exactly.
        mag = abs(self._u0) + abs(self._v0) * 2
        mag += n * (abs(self._du) + abs(self._dv) * 2)
        return mag < 2**52

    def _extend_to(self, n: int) -> None:
        while len(self._buf) < n:
            lo = len(self._buf)
            hi = min(max(n, lo + _CHUNK), lo + 4 * _CHUNK)
            if self._float_bound_ok(hi):
                self._append(self._vector_chunk(lo, hi))
            else:
                self._append(self._scalar_chunk(lo, hi))

    def _vector_chunk(self, lo: int, hi: int) -> np.ndarray:
        idx = np.arange(lo, hi, dtype=np.float64)
        sq = math.sqrt(self._d)
        # (u0 + i*du + (v0 + i*dv)*sq)/den op by op in place: the same floats
        f = idx * self._du + self._u0
        idx *= self._dv
        idx += self._v0
        idx *= sq
        f += idx
        f /= self._den
        f -= np.floor(f, out=idx)
        sym = (f >= 0.25).astype(np.uint8)
        risky = (f < _GUARD) | (np.abs(f - 0.25) < _GUARD) | (f > 1.0 - _GUARD)
        for j in np.flatnonzero(risky):
            sym[j] = self._exact_symbol(lo + int(j))
        return sym

    def _scalar_chunk(self, lo: int, hi: int) -> bytearray:
        # Exact integer walk; used when coefficients are too large for
        # the float screen. Invariant: (u, v) is the orbit point at
        # 0-based index `steps`.
        if self._steps > lo:
            self._u, self._v, self._steps = self._u0, self._v0, 0
        u, v, m, d = self._u, self._v, self._den, self._d
        du, dv = self._du, self._dv
        steps = self._steps
        while steps < lo:
            u += du
            v += dv
            if surd_sign_int(u - m, v, d) >= 0:
                u -= m
            steps += 1
        out = bytearray()
        for i in range(lo, hi):
            if u == 0 and v == 0:
                raise CutPointCollision(i + 1, "0")
            q = surd_sign_int(4 * u - m, 4 * v, d)
            if q == 0:
                raise CutPointCollision(i + 1, "1/4")
            out.append(0 if q < 0 else 1)
            u += du
            v += dv
            if surd_sign_int(u - m, v, d) >= 0:
                u -= m
        self._u, self._v, self._steps = u, v, hi
        return out


class PeriodicStream(SymbolStream):
    """Periodic word w^inf for a finite 0/1 word w."""

    def __init__(self, word: str, label: str | None = None):
        if not word or any(c not in "01" for c in word):
            raise ValueError("periodic word must be a nonempty 0/1 string")
        self.base = word
        self._cell = bytes(int(c) for c in word)
        super().__init__(label or f"per:{word}")

    def _extend_to(self, n: int) -> None:
        reps = -(-(n - len(self._buf)) // len(self._cell)) + 1
        self._append(self._cell * reps)


class WordStream(SymbolStream):
    """Finite explicit word exposed through the stream interface.

    Reading past the stored symbols is an error; this class exists for
    tests and adapters, not for the infinite constructions.
    """

    def __init__(self, bits: Union[str, bytes], label: str | None = None):
        if isinstance(bits, str):
            if any(c not in "01" for c in bits):
                raise ValueError("word must be a 0/1 string")
            data = bytes(int(c) for c in bits)
        else:
            data = bytes(bits)
            if any(v not in (0, 1) for v in data):
                raise ValueError("word bytes must be 0/1 valued")
        super().__init__(label or "word")
        self._append(data)
        self.length = len(data)

    def _extend_to(self, n: int) -> None:
        raise ValueError(
            f"word stream {self.label!r} has only {self.length} symbols"
        )


class _ShiftedStream(SymbolStream):
    # Owns no symbols: its buffer is a view of the base's from the offset on.
    def __init__(self, base: SymbolStream, n: int):
        self.base = base
        self.offset = n
        super().__init__(f"shift({base.label},{n})")

    def _extend_to(self, n: int) -> None:
        self.base.array(self.offset + n)
        self._buf = self.base._buf[self.offset:]


def shift(x: SymbolStream, n: int) -> SymbolStream:
    """Stream y with y_i = x_{i+n}."""
    if n < 0:
        raise ValueError("shift offset must be nonnegative")
    if n == 0:
        return x
    if isinstance(x, _ShiftedStream):
        return _ShiftedStream(x.base, x.offset + n)
    return _ShiftedStream(x, n)


# -- itineraries ---------------------------------------------------------


def sturmian_stream(alpha) -> RotationCoding:
    """The coding A(alpha): symbol i describes the i-th rotation of alpha.

    The start point is rotate(alpha, alpha), so symbol 1 corresponds to
    the orbit point one step past alpha.
    """
    alpha_q = QuadSurd._coerce(alpha)
    if alpha_q is None:
        raise TypeError("alpha must be QuadSurd or rational")
    return RotationCoding(rotate(alpha_q, alpha_q), alpha_q, label=f"A:{alpha_q}")


# -- word utilities --------------------------------------------------------

WordLike = Union[str, SymbolStream, np.ndarray]


def _bits_for(x: WordLike, n: int) -> np.ndarray:
    """First n symbols of x as uint8; a finite word may give fewer."""
    if isinstance(x, SymbolStream):
        return x.array(n)
    if isinstance(x, np.ndarray):
        return x[:n]
    if isinstance(x, str):
        arr = np.frombuffer(x.encode("ascii"), dtype=np.uint8) - ord("0")
        if arr.size and arr.max() > 1:
            raise ValueError("words must contain only 0/1")
        return arr[:n]
    raise TypeError(f"expected a stream, array or 0/1 word, got {type(x).__name__}")


def lcp(x: WordLike, y: WordLike, cap: int) -> int:
    """Length of the longest common prefix, saturating at cap.

    Finite words additionally saturate at the shorter length.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    ax = _bits_for(x, cap)
    ay = _bits_for(y, cap)
    n = min(ax.shape[0], ay.shape[0])
    diff = np.flatnonzero(ax[:n] != ay[:n])
    return int(diff[0]) if diff.size else n


class DistBound(NamedTuple):
    """Sequence-metric value 2^-k; ``exact`` False means an upper bound."""

    value: Fraction
    exact: bool


def dist(x: WordLike, y: WordLike, cap: int) -> DistBound:
    """Sequence metric rho(x, y) = 2^-(lcp+1), saturated at cap.

    When the words agree through the cap the true distance is at most
    2^-cap and the result is flagged inexact.
    """
    k = lcp(x, y, cap)
    if k >= cap:
        return DistBound(Fraction(1, 2**cap), False)
    return DistBound(Fraction(1, 2 ** (k + 1)), True)


# -- factor machinery ------------------------------------------------------


def _packed_windows(arr: np.ndarray, n: int) -> np.ndarray:
    if not 1 <= n <= 64:
        raise ValueError("factor length must be in 1..64 (bit-packed)")
    length = arr.shape[0] - n + 1
    if length <= 0:
        return np.empty(0, dtype=np.uint64)
    # One uint64 buffer, updated in place; the uint8 slices are widened
    # by the ufunc's own buffering, not as full-size temporaries.
    w = arr[:length].astype(np.uint64)
    one = np.uint64(1)
    for j in range(1, n):
        w <<= one
        w |= arr[j:j + length]
    return w


def _unpack_word(value: int, n: int) -> str:
    return format(value, f"0{n}b")


class _Spectrum(NamedTuple):
    """Sorted distinct packed n_max-windows of a symbol range, with counts.

    ``tail`` is the last n_max-1 symbols of the range: a shorter window
    that starts after the last full n_max-window lies inside it.
    """

    n_max: int
    values: np.ndarray
    counts: np.ndarray
    tail: np.ndarray


def _spectrum_for(x: WordLike, n: int, horizon: int, tail_start: int) -> _Spectrum:
    """Window spectrum of symbols tail_start+1..horizon at length >= n.

    A stream keeps one spectrum per (horizon, tail_start); a longer
    request rebuilds it at twice its length or more (at most 64 and the
    range length), so lengths asked shortest first repack a few times.
    """
    memo = x._spectra if isinstance(x, SymbolStream) else {}
    spec = memo.get((horizon, tail_start))
    if spec is None or not 1 <= n <= spec.n_max:
        arr = _bits_for(x, horizon)[tail_start:]
        if spec is not None and n > spec.n_max:
            n = max(n, min(2 * spec.n_max, 64, arr.shape[0]))
        values, counts = np.unique(_packed_windows(arr, n), return_counts=True)
        tail = arr[max(arr.shape[0] - n + 1, 0):].copy()
        spec = memo[horizon, tail_start] = _Spectrum(n, values, counts, tail)
    return spec


def _counts_at(spec: _Spectrum, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct packed length-n windows (n <= n_max) and their counts.

    The n-prefixes of the sorted n_max-windows are sorted, so equal ones
    form runs whose counts add up; the windows that start in ``tail``
    are counted in exactly.
    """
    pref = spec.values >> np.uint64(spec.n_max - n)
    edge = np.ones(pref.shape, dtype=bool)
    edge[1:] = pref[1:] != pref[:-1]
    starts = np.flatnonzero(edge)
    values = pref[starts]
    counts = np.add.reduceat(spec.counts, starts) if starts.size else spec.counts.copy()
    extra: Counter = Counter()
    v, mask = 0, (1 << n) - 1
    for i, b in enumerate(spec.tail.tolist()):
        v = ((v << 1) | b) & mask
        if i >= n - 1:
            extra[v] += 1
    if extra:
        ev = np.fromiter(extra.keys(), dtype=np.uint64, count=len(extra))
        ec = np.fromiter(extra.values(), dtype=np.int64, count=len(extra))
        pos = np.searchsorted(values, ev)
        new = pos >= values.size
        new[~new] = values[pos[~new]] != ev[~new]
        np.add.at(counts, pos[~new], ec[~new])
        values = np.concatenate((values, ev[new]))
        counts = np.concatenate((counts, ec[new]))
    return values, counts


def factors(x: WordLike, n: int, horizon: int) -> set[str]:
    """All length-n words occurring in the first ``horizon`` symbols."""
    if horizon < n:
        raise ValueError("horizon must be at least the factor length")
    values, _ = _counts_at(_spectrum_for(x, n, horizon, 0), n)
    return {_unpack_word(v, n) for v in values.tolist()}


def recurrent_factors(
    x: WordLike,
    n: int,
    horizon: int,
    tail_start: int | None = None,
    min_count: int = 5,
) -> set[str]:
    """Length-n words seen at least min_count times beyond tail_start.

    A finite stand-in for the factors of the omega-limit set: the first
    ``tail_start`` window positions are discarded as transient, and a
    word must recur ``min_count`` times in the remainder to count.  Both
    an over- and under-approximation in general; parameters are part of
    any reported result.
    """
    if tail_start is None:
        tail_start = horizon // 100
    if min_count < 2:
        raise ValueError("min_count must be >= 2")
    if tail_start + n > horizon:
        raise ValueError("insufficient horizon for the requested tail window")
    values, counts = _counts_at(_spectrum_for(x, n, horizon, tail_start), n)
    return {_unpack_word(v, n) for v in values[counts >= min_count].tolist()}


def factor_count_profile(x: WordLike, n_max: int, horizon: int) -> list[int]:
    """Distinct factor counts p(n) for n = 1..n_max; entry i is p(i+1).

    One window spectrum at n_max serves every shorter length.
    """
    if horizon < n_max:
        raise ValueError("horizon must be at least n_max")
    spec = _spectrum_for(x, n_max, horizon, 0)
    return [_counts_at(spec, n)[0].size for n in range(1, n_max + 1)]


# -- refinement atoms ------------------------------------------------------


class AtomProfile:
    """Cut-point refinement of the circle for one rotation angle.

    Depth k uses the cut set {mod1(c - i*alpha) : c in {0, 1/4}, i < k};
    the maximal gap between consecutive cuts bounds the diameter of any
    single arc on which the first k itinerary symbols are constant.  The
    full region of one k-symbol word is a union of such arcs and need
    not be connected, so separation depths are certified against exact
    word-region diameters, not raw gaps.

    Coordinates are integers.  With alpha = a + b*sqrt(d) and
    M = lcm(4, den a, den b), every cut is (u + v*sqrt(d))/M, kept as a
    sorted list of (u, v) pairs; gaps and arcs use the same form, and
    every floor, order and max is decided by ``isqrt`` and
    :func:`surd_sign_int`.  Each depth inserts its two new cuts by
    bisection and updates a count of the gap lengths (a rotation has
    only a few distinct gaps).

    Words grow by one symbol per depth.  Arc j runs from cut j to the
    next cut; bit i of its word is symbol i+1 of every point inside it.
    A split arc passes its word to both halves, and the new symbol
    k+1 is 0 exactly on the arcs from cut -k*alpha to cut 1/4 - k*alpha.
    A word region made of one arc of length e has diameter min(e, 1/2),
    so the largest region is min(diameter(k), 1/2) unless a word owning
    several arcs spreads wider; only those words need the pair spread.
    Once the words are distinct and every arc is shorter than 1/4 they
    stay distinct at every later depth, and they are dropped.
    """

    def __init__(self, alpha):
        alpha_q = QuadSurd._coerce(alpha)
        if alpha_q is None or alpha_q.is_rational:
            raise ValueError("atom profiles require an irrational angle")
        self.alpha = mod1(alpha_q)
        a, b = self.alpha.a, self.alpha.b
        m = math.lcm(4, a.denominator, b.denominator)
        self._m = m
        self._d = self.alpha.d
        self._du = int(a * m)
        self._dv = int(b * m)
        # depth 1: cuts 0 and 1/4; [0, 1/4) codes 0, [1/4, 1) codes 1
        self._cuts: list[tuple[int, int]] = [(0, 0), (m // 4, 0)]
        self._words: list[int] | None = [0, 1]
        self._gaps = Counter({(m // 4, 0): 1, (m - m // 4, 0): 1})
        self._diameters: list[QuadSurd] = []
        self._cylinders: list[QuadSurd] = []
        self._record()

    # -- integer coordinates ----------------------------------------------

    def _mod1(self, u: int, v: int) -> tuple[int, int]:
        # floor((u + v*sqrt(d))/M) = (u + floor(v*sqrt(d))) // M, and
        # v*sqrt(d) is never an integer unless v == 0
        root = math.isqrt(v * v * self._d)
        fl = root if v >= 0 else -root - 1
        return u - self._m * ((u + fl) // self._m), v

    def _less(self, x: tuple[int, int], y: tuple[int, int]) -> bool:
        return surd_sign_int(x[0] - y[0], x[1] - y[1], self._d) < 0

    def _surd(self, x: tuple[int, int]) -> QuadSurd:
        return QuadSurd(Fraction(x[0], self._m), Fraction(x[1], self._m), self._d)

    def _arc(self, j: int) -> tuple[tuple[int, int], tuple[int, int]]:
        left = self._cuts[j]
        if j + 1 < len(self._cuts):
            right = self._cuts[j + 1]
            return left, (right[0] - left[0], right[1] - left[1])
        right = self._cuts[0]
        return left, (right[0] + self._m - left[0], right[1] - left[1])

    # -- refinement -------------------------------------------------------

    def _insert(self, u: int, v: int) -> int:
        """Insert the cut mod1((u + v*sqrt(d))/M); return its index."""
        cut = self._mod1(u, v)
        cuts, m = self._cuts, self._m
        lo, hi = 0, len(cuts)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._less(cuts[mid], cut):
                lo = mid + 1
            else:
                hi = mid
        # the new cut splits the arc ending at cuts[lo]; index -1 is the
        # arc that wraps past 1
        (pu, pv), (nu, nv) = cuts[lo - 1], cuts[lo % len(cuts)]
        left = (cut[0] - pu + (m if lo == 0 else 0), cut[1] - pv)
        right = (nu - cut[0] + (m if lo == len(cuts) else 0), nv - cut[1])
        gaps = self._gaps
        split = (left[0] + right[0], left[1] + right[1])
        gaps[split] -= 1
        if not gaps[split]:
            del gaps[split]
        gaps[left] += 1
        gaps[right] += 1
        cuts.insert(lo, cut)
        if self._words is not None:
            self._words.insert(lo, self._words[lo - 1])
        return lo

    def _advance(self) -> None:
        k = len(self._diameters)
        u, v = -k * self._du, -k * self._dv
        p = self._insert(u, v)
        q = self._insert(u + self._m // 4, v)
        if q <= p:
            p += 1
        words = self._words
        if words is not None:
            # symbol k+1 is 0 on arcs p..q-1 (cyclically), 1 elsewhere
            bit = 1 << k
            if p < q:
                words[:p] = [w | bit for w in words[:p]]
                words[q:] = [w | bit for w in words[q:]]
            else:
                words[q:p] = [w | bit for w in words[q:p]]
        self._record()

    def _record(self) -> None:
        top = None
        for gap in self._gaps:
            if top is None or self._less(top, gap):
                top = gap
        self._diameters.append(self._surd(top))
        half = (self._m // 2, 0)
        best = top if self._less(top, half) else half
        words = self._words
        if words is not None and len(set(words)) < len(words):
            groups: dict[int, list[int]] = {}
            for j, w in enumerate(words):
                groups.setdefault(w, []).append(j)
            for members in groups.values():
                arcs = [self._arc(j) for j in members]
                for x, (l1, e1) in enumerate(arcs):
                    for l2, e2 in arcs[x + 1:]:
                        spread = self._arc_pair_spread(l1, e1, l2, e2)
                        if self._less(best, spread):
                            best = spread
        elif self._less((4 * top[0], 4 * top[1]), (self._m, 0)):
            # Distinct words stay distinct once every arc is shorter than
            # 1/4: the two new cuts, 1/4 apart, then split two different
            # arcs, and the halves of each get different new symbols.
            # Every later region is a single arc, so the words can go.
            self._words = None
        self._cylinders.append(self._surd(best))

    def _arc_pair_spread(self, l1, e1, l2, e2) -> tuple[int, int]:
        """Exact sup of circle distance between closed arcs [l1,l1+e1], [l2,l2+e2].

        The oriented gap from a point of the first arc to one of the
        second sweeps a closed arc of length e1+e2 starting at l2-l1-e1;
        the sup of min(g, 1-g) over that arc is 1/2 if it covers 1/2,
        else an endpoint.
        """
        m = self._m
        half = (m // 2, 0)
        extent = (e1[0] + e2[0], e1[1] + e2[1])
        if not self._less(extent, (m, 0)):
            return half
        g0 = self._mod1(l2[0] - l1[0] - e1[0], l2[1] - l1[1] - e1[1])
        if not self._less(extent, self._mod1(half[0] - g0[0], -g0[1])):
            return half
        g1 = self._mod1(g0[0] + extent[0], g0[1] + extent[1])
        near = [g if self._less(g, half) else (m - g[0], -g[1]) for g in (g0, g1)]
        return near[1] if self._less(near[0], near[1]) else near[0]

    # -- queries ----------------------------------------------------------

    def diameter(self, k: int) -> QuadSurd:
        if k < 1:
            raise ValueError("depth must be >= 1")
        while len(self._diameters) < k:
            self._advance()
        return self._diameters[k - 1]

    def cylinder_diameter(self, k: int) -> QuadSurd:
        """Exact circle diameter of the largest depth-k word region.

        Groups the 2k cut arcs by their k-symbol word and takes the sup
        of circle distance over each group's closed arcs.  Distinct arcs
        can carry the same word (the word regions are then disconnected),
        in which case this strictly exceeds diameter(k); any separation
        certificate must clear this value, not the single-arc gap.
        """
        if k < 1:
            raise ValueError("depth must be >= 1")
        while len(self._cylinders) < k:
            self._advance()
        return self._cylinders[k - 1]

    def depth_for(self, delta, max_depth: int = 100_000) -> int:
        """Minimal k whose word regions all have diameter < delta.

        Two points at circle distance >= delta then cannot share their
        first k itinerary symbols, so depth_for(delta) certifies
        symbolic separation for any pair delta apart.  The gap bound
        diameter(k) is checked first as a cheap necessary condition.
        """
        dq = QuadSurd._coerce(delta)
        if dq is None:
            raise TypeError("delta must be QuadSurd or rational")
        if dq.sign() <= 0:
            raise ValueError("delta must be positive")
        k = 1
        while True:
            if self.diameter(k) < dq and self.cylinder_diameter(k) < dq:
                return k
            k += 1
            if k > max_depth:
                raise ValueError(f"no depth below {max_depth} refines past {delta}")


def atom_profile(alpha) -> AtomProfile:
    """Shared (memoized) atom profile for an angle, keyed on mod1(alpha)."""
    return _shared_profile(mod1(QuadSurd._coerce(alpha)))


_shared_profile = functools.cache(AtomProfile)
