"""Rotation itineraries and finite-word machinery.

Streams are infinite binary words with a memoized prefix.  A rotation
coding tracks the orbit of a start point under an irrational rotation
and records which cell of {[0,1/4), [1/4,1)} each orbit point visits.
Symbol indices are 1-based in every public contract (symbol i describes
the orbit point after i-1 rotation steps); internal buffers are 0-based
uint8 arrays.

Generation is exact and uses no float.  The angle is reduced once per
coding, and the start point of each extension of the prefix once,
exactly, to 64-bit fixed-point floors; the orbit is stepped in wrapping
uint64 arithmetic.  Before it steps an extension, the generator counts,
exactly and with two floor sums, the points whose accumulated rounding
window may reach the cut 0 or 1/4.  An extension with none, which is
nearly every extension, costs one add and one compare per symbol.  An
extension with some steps every block again from its own exact start,
so a block's window is at most its length, and decides exactly each
point whose window does reach a cut.  An orbit point that hits 0 or 1/4
exactly raises :class:`CutPointCollision` instead of silently picking a
side.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Union

import numpy as np

from gehman.exactnum import (
    QuadSurd,
    floor_sum,
    mod1,
    rotate,
    surd_floor,
    surd_sign_int,
)

_BLOCK = 1 << 15  # symbols per cache-sized block of a fill
_QUARTER = np.uint64(1 << 62)  # the cut 1/4 in 64-bit fixed point
_NOT_QUARTER = ~_QUARTER


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
    read-only view of the symbols made so far.  Subclasses generate by
    writing into the slots :meth:`_reserve` hands out and publishing
    them with :meth:`_commit`.  ``_spectra`` memoizes the factor
    machinery: for each (horizon, tail_start) the window spectrum at the
    longest factor length asked so far.  ``_words`` memoizes the first
    ``_npacked`` symbols packed into uint64 words (:meth:`packed`).
    """

    def __init__(self, label: str = "stream"):
        self._store = np.empty(0, dtype=np.uint8)
        self._buf = self._store[:0]
        self._buf.flags.writeable = False
        self._spectra: dict[tuple[int, int], _Spectrum] = {}
        self._words = np.zeros(1, dtype="<u8")
        self._words.flags.writeable = False
        self._npacked = 0
        self.label = label

    def _extend_to(self, n: int) -> None:
        raise NotImplementedError

    def _reserve(self, end: int) -> np.ndarray:
        """Writable slots for symbols len(_buf)+1..end, not yet published.

        Grows the store geometrically; a view handed out earlier keeps
        the old store, whose symbols never change.
        """
        size = len(self._buf)
        if end > self._store.shape[0]:
            store = np.empty(max(end, 2 * size), dtype=np.uint8)
            store[:size] = self._buf
            self._store = store
        return self._store[size:end]

    def _commit(self, end: int) -> None:
        """Publish the reserved slots up to ``end``, all written."""
        self._buf = self._store[:end]
        self._buf.flags.writeable = False

    def array(self, n: int) -> np.ndarray:
        """First n symbols as a read-only uint8 view, without a copy."""
        if n < 0:
            raise ValueError("prefix length must be nonnegative")
        if len(self._buf) < n:
            self._extend_to(n)
        return self._buf[:n]

    def packed(self, n: int) -> np.ndarray:
        """First n symbols packed little-endian into n // 64 + 1 uint64 words.

        Bit i of word k is symbol 64k + i + 1; the bits from n on are
        unspecified.  The words are kept as a read-only memo.  A request
        past the ``_npacked`` symbols packed so far packs the whole
        buffer from the last whole packed word on, so each symbol is
        packed once and a partly filled last word is packed again before
        it is served.
        """
        if n < 0:
            raise ValueError("prefix length must be nonnegative")
        if self._npacked < n:
            self.array(n)
            buf, k = self._buf, self._npacked >> 6
            words = np.empty(len(buf) // 64 + 1, dtype="<u8")
            words[:k] = self._words[:k]
            _pack(buf[64 * k:], words[k:])
            words.flags.writeable = False
            self._words, self._npacked = words, len(buf)
        return self._words[:n // 64 + 1]

    def prefix(self, n: int) -> bytes:
        """First n symbols as raw bytes with values 0/1."""
        return self.array(n).tobytes()

    def word(self, n: int) -> str:
        """First n symbols as a 0/1 text word."""
        return str(self.array(n) + ord("0"), "ascii")

    def symbol(self, i: int) -> int:
        """Symbol at 1-based index i."""
        if i < 1:
            raise ValueError("symbol indices are 1-based")
        return int(self.array(i)[i - 1])

    def _window_spectrum(self, n: int, horizon: int, tail_start: int) -> _Spectrum:
        """Window spectrum of symbols tail_start+1..horizon at length n."""
        return _array_spectrum(self.array(horizon)[tail_start:], n)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label}>"


def _pack(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Pack 0/1 bits little-endian into the uint64 words ``out``, which
    must hold them; the bits past the last are zero."""
    b = np.packbits(bits, bitorder="little")
    view = out.view(np.uint8)
    view[:b.size] = b
    view[b.size:] = 0
    return out


def _ramp(x0: int, a: int, n: int) -> np.ndarray:
    """x0 + j*a mod 2^64 for j < n, as uint64."""
    x = np.arange(n, dtype=np.uint64)
    x *= np.uint64(a)
    x += np.uint64(x0)
    return x


def _near_cuts(x0: int, a: int, n: int) -> int:
    """Number of j < n with (x0 + j*a + n) mod 2^62 <= n, for n < 2^62.

    For t = x0 + j*a + n, floor(t/2^62) - floor((t - n - 1)/2^62) is 1
    when t mod 2^62 <= n and 0 otherwise, so the count is a difference
    of two floor sums, with a and t taken mod 2^62.
    """
    m = 1 << 62
    a, b = a % m, (x0 + n) % m
    return floor_sum(n, m, a, b) - floor_sum(n, m, a, b - n - 1)


class RotationCoding(SymbolStream):
    """Itinerary of ``start`` under rotation by irrational ``alpha``.

    Symbol i is 0 iff the orbit point after i-1 steps lies in [0, 1/4).
    Start and angle are kept as integers over one common denominator.
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
        self._a = surd_floor(self._du << 64, self._dv << 64, d, m) % 2**64
        super().__init__(label or f"pt:{start_q}@{alpha_q}")

    # -- generation -------------------------------------------------------

    def _extend_to(self, n: int) -> None:
        # The extension is published only once every symbol in it is
        # decided, so a collision leaves no undecided slot behind.
        lo = len(self._buf)
        end = max(n, lo + _BLOCK)
        self._fill(self._reserve(end), lo)
        self._commit(end)

    def _fill(self, out: np.ndarray, lo: int) -> None:
        # Fixed point with 64 fraction bits.  x0 and a (kept from
        # __init__) are the floors of 2^64 times the point at lo and the
        # angle, reduced mod 1, so uint64 arithmetic, which wraps mod
        # 2^64, gives x_j = x0 + j*a with the true point at x_j + delta,
        # 0 <= delta < j + 1 units.  A point whose window [x_j, x_j + n]
        # holds a cut (0 or 2^62), n the length of the fill, may be
        # rounded to the wrong side; _near_cuts counts those exactly.
        # With none, the fill is exact as stepped, per cache-sized block
        # one add of size*a mod 2^64 and one compare into the store.
        # With some, _decide_near decides every block from its own
        # exact start.
        n, a = len(out), self._a
        x0 = self._fixed_point(lo)
        if _near_cuts(x0, a, n):
            for b0 in range(0, n, _BLOCK):
                self._decide_near(out[b0:b0 + _BLOCK], lo + b0)
            return
        size = min(n, _BLOCK)
        x = _ramp(x0, a, size)
        step = np.uint64(size * a % 2**64)
        sym = out.view(bool)
        for b0 in range(0, n, size):
            xb = x[:min(size, n - b0)]
            if b0:
                xb += step
            np.greater_equal(xb, _QUARTER, out=sym[b0:b0 + len(xb)])

    def _fixed_point(self, i: int) -> int:
        """floor(2^64 * point at 0-based index i) mod 2^64, exactly."""
        u, v = self._u0 + i * self._du, self._v0 + i * self._dv
        return surd_floor(u << 64, v << 64, self._d, self._den) % 2**64

    def _decide_near(self, out: np.ndarray, lo: int) -> None:
        """Decide symbols lo+1..lo+w of one block, w = len(out).

        The block's start is floored exactly and stepped on its own, so
        the true point at step j lies within j + 1 <= w units above x_j,
        and only the points whose window [x_j, x_j + w] reaches 0 or
        2^62 are decided exactly.
        """
        w = len(out)
        x = _ramp(self._fixed_point(lo), self._a, w)
        np.greater_equal(x, _QUARTER, out=out.view(bool))
        # (x + w) mod 2^64, with the bit of 2^62 cleared, is at most w
        # iff x lies in [-w, 0] or [2^62 - w, 2^62]
        screen = (x + np.uint64(w)) & _NOT_QUARTER
        for j in np.flatnonzero(screen <= w).tolist():
            out[j] = self._symbol_at(lo + j)

    def _symbol_at(self, i: int) -> int:
        """Symbol i+1, decided exactly.

        The point at 0-based index i is (u + v*sqrt(d))/den, reduced
        mod 1 by :func:`surd_floor` and compared with 1/4 by
        :func:`surd_sign_int`.
        """
        m, d = self._den, self._d
        u, v = self._u0 + i * self._du, self._v0 + i * self._dv
        u -= m * surd_floor(u, v, d, m)
        if u == 0 and v == 0:
            raise CutPointCollision(i + 1, "0")
        q = surd_sign_int(4 * u - m, 4 * v, d)
        if q == 0:
            raise CutPointCollision(i + 1, "1/4")
        return 0 if q < 0 else 1


class PeriodicStream(SymbolStream):
    """Periodic word w^inf for a finite 0/1 word w."""

    def __init__(self, word: str, label: str | None = None):
        if not word or any(c not in "01" for c in word):
            raise ValueError("periodic word must be a nonempty 0/1 string")
        self.base = word
        self._cell = bytes(int(c) for c in word)
        super().__init__(label or f"per:{word}")

    def _extend_to(self, n: int) -> None:
        size = len(self._buf)
        reps = -(-(n - size) // len(self._cell)) + 1
        end = size + reps * len(self._cell)
        self._reserve(end)[:] = np.frombuffer(self._cell * reps, dtype=np.uint8)
        self._commit(end)


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
        self._reserve(len(data))[:] = np.frombuffer(data, dtype=np.uint8)
        self._commit(len(data))
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


def _packed_bits(x: WordLike, n: int) -> np.ndarray:
    """First n symbols of x as :meth:`SymbolStream.packed` gives them.

    A stream serves its memo; an array or word is packed afresh, and
    must hold n symbols, each 0 or 1, since packing reads any nonzero
    value as 1.
    """
    if isinstance(x, SymbolStream):
        return x.packed(n)
    arr = _bits_for(x, n)
    if arr.shape[0] < n:
        raise ValueError(f"input too short: fewer than {n} symbols")
    if n and not 0 <= arr.min() <= arr.max() <= 1:
        raise ValueError("symbols must be 0 or 1")
    return _pack(arr, np.empty(n // 64 + 1, dtype="<u8"))


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
    size = arr.shape[0]
    if size < n:
        return np.empty(0, dtype=np.uint64)
    # Windows double in length: w_{k+s}[i] = (w_k[i] << s) | w_k[i+s]
    # with s = min(k, n-k).  For s < k the two halves overlap, and the
    # overlapping bits agree, so the OR is exact.  Two buffers take
    # turns; w_k is valid on its first size-k+1 entries.
    cur = arr.astype(np.uint64)
    nxt = np.empty_like(cur)
    k = 1
    while k < n:
        s = min(k, n - k)
        m = size - k - s + 1
        np.left_shift(cur[:m], np.uint64(s), out=nxt[:m])
        np.bitwise_or(nxt[:m], cur[s:s + m], out=nxt[:m])
        cur, nxt = nxt, cur
        k += s
    return cur[:size - n + 1]


def _unpack_words(values: np.ndarray, n: int) -> list[str]:
    """Packed length-n windows as 0/1 text words, decoded in one pass.

    The big-endian bytes of each value unpack to its 64 bits, high bit
    first; the last n, as UCS-4 code points, are one numpy U{n} string.
    """
    bits = np.unpackbits(values.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1)
    chars = bits[:, 64 - n:].astype(np.uint32)
    chars += ord("0")
    return chars.view(f"U{n}").ravel().tolist()


class _Spectrum(NamedTuple):
    """Sorted distinct packed n_max-windows of a symbol range, with counts.

    ``tail`` holds, packed as n_max-windows with zeros past the range's
    end, the windows that start in the last n_max-1 symbols: a shorter
    window that starts after the last full n_max-window lies inside
    them.  ``tallies`` keeps the read-only :func:`_counts_at` of each
    length read so far; at n_max it is the spectrum's own arrays.
    """

    n_max: int
    values: np.ndarray
    counts: np.ndarray
    tail: np.ndarray
    tallies: dict[int, tuple[np.ndarray, np.ndarray]]


def _spectrum(n: int, values: np.ndarray, counts: np.ndarray, end: np.ndarray) -> _Spectrum:
    """The spectrum at length n of a range that ends with symbols ``end``.

    No length-n window starts in the tail, so values and counts are
    already the tally at n.
    """
    tail = end[max(end.shape[0] - n + 1, 0):]
    padded = np.concatenate((tail, np.zeros(n - 1, dtype=tail.dtype)))
    values.flags.writeable = counts.flags.writeable = False
    return _Spectrum(n, values, counts, _packed_windows(padded, n), {n: (values, counts)})


def _run_starts(v: np.ndarray) -> np.ndarray:
    """Index of the first entry of each run of equal entries of v."""
    edge = np.ones(v.shape, dtype=bool)
    np.not_equal(v[1:], v[:-1], out=edge[1:])
    return np.flatnonzero(edge)


def _tally(values: np.ndarray, weights: np.ndarray, kind=None) -> tuple[np.ndarray, np.ndarray]:
    """Distinct entries of values, sorted, with the weights of each summed.

    ``kind`` is ``np.argsort``'s: a stable sort is the faster one on
    values that come nearly sorted.
    """
    order = np.argsort(values, kind=kind)
    values = values[order]
    starts = _run_starts(values)
    counts = np.add.reduceat(weights[order], starts) if starts.size else weights[:0]
    return values[starts], counts


def _array_spectrum(arr: np.ndarray, n: int) -> _Spectrum:
    """Pack, sort and count the length-n windows of one symbol array."""
    w = _packed_windows(arr, n)
    w.sort()  # in place: w is a fresh buffer
    starts = _run_starts(w)
    return _spectrum(n, w[starts], np.diff(starts, append=w.size), arr)


def _spectrum_for(x: WordLike, n: int, horizon: int, tail_start: int) -> _Spectrum:
    """Window spectrum of symbols tail_start+1..horizon at length >= n.

    A stream builds it with :meth:`SymbolStream._window_spectrum`, which
    packs its symbol range and which a diamond stream overrides to count
    the windows from its blocks without writing the interleaving out.
    A stream keeps one spectrum per (horizon, tail_start); a longer
    request rebuilds it at twice its length or more (at most 64 and the
    range length), so lengths asked shortest first rebuild a few times.
    An array or text word is packed afresh on every call.
    """
    if not isinstance(x, SymbolStream):
        return _array_spectrum(_bits_for(x, horizon)[tail_start:], n)
    spec = x._spectra.get((horizon, tail_start))
    if spec is None or not 1 <= n <= spec.n_max:
        if spec is not None and n > spec.n_max:
            n = max(n, min(2 * spec.n_max, 64, horizon - tail_start))
        spec = x._window_spectrum(n, horizon, tail_start)
        x._spectra[horizon, tail_start] = spec
    return spec


def _counts_at(spec: _Spectrum, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct packed length-n windows (n <= n_max) and their counts.

    Each n_max-window counts for its n-prefix, and each length-n window
    that starts in the tail counts once.  The prefixes come sorted, so
    one stable tally sums them.  Each length is tallied once per
    spectrum and kept on it, read-only.
    """
    got = spec.tallies.get(n)
    if got is None:
        shift = np.uint64(spec.n_max - n)
        tail = spec.tail[:max(spec.tail.size - n + 1, 0)] >> shift
        ones = np.ones(tail.size, dtype=spec.counts.dtype)
        got = _tally(np.concatenate((spec.values >> shift, tail)),
                     np.concatenate((spec.counts, ones)), "stable")
        for a in got:
            a.flags.writeable = False
        spec.tallies[n] = got
    return got


def factors(x: WordLike, n: int, horizon: int) -> set[str]:
    """All length-n words occurring in the first ``horizon`` symbols."""
    if horizon < n:
        raise ValueError("horizon must be at least the factor length")
    values, _ = _counts_at(_spectrum_for(x, n, horizon, 0), n)
    return set(_unpack_words(values, n))


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
    if tail_start < 0:
        raise ValueError("tail_start must be nonnegative")
    if min_count < 2:
        raise ValueError("min_count must be >= 2")
    if tail_start + n > horizon:
        raise ValueError("insufficient horizon for the requested tail window")
    values, counts = _counts_at(_spectrum_for(x, n, horizon, tail_start), n)
    return set(_unpack_words(values[counts >= min_count], n))


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
    only a few distinct gaps).  Each depth keeps its gap diameter and
    cylinder bound as (u, v) pairs; :meth:`diameter` and
    :meth:`cylinder_diameter` build a QuadSurd only when asked, and
    :meth:`depth_for` clears the denominators of delta against M once
    and decides each depth with one :func:`surd_sign_int`.

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
        # per depth, as (u, v) pairs: the largest gap, the largest word
        # region, and the larger of the two
        self._diameters: list[tuple[int, int]] = []
        self._cylinders: list[tuple[int, int]] = []
        self._bounds: list[tuple[int, int]] = []
        self._record()

    # -- integer coordinates ----------------------------------------------

    def _mod1(self, u: int, v: int) -> tuple[int, int]:
        return u - self._m * surd_floor(u, v, self._d, self._m), v

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
        half = (self._m // 2, 0)
        narrow = self._less(top, half)
        best = top if narrow else half
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
        self._diameters.append(top)
        self._cylinders.append(best)
        # Every spread is at most 1/2, so the cylinder bound is
        # min(top, 1/2) or more, and at most 1/2: the larger of the two
        # bounds is top when top >= 1/2 and the cylinder bound otherwise.
        self._bounds.append(best if narrow else top)

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

    def _refine_to(self, k: int) -> None:
        if k < 1:
            raise ValueError("depth must be >= 1")
        while len(self._bounds) < k:
            self._advance()

    def diameter(self, k: int) -> QuadSurd:
        self._refine_to(k)
        return self._surd(self._diameters[k - 1])

    def cylinder_diameter(self, k: int) -> QuadSurd:
        """Exact circle diameter of the largest depth-k word region.

        Groups the 2k cut arcs by their k-symbol word and takes the sup
        of circle distance over each group's closed arcs.  Distinct arcs
        can carry the same word (the word regions are then disconnected),
        in which case this strictly exceeds diameter(k); any separation
        certificate must clear this value, not the single-arc gap.
        """
        self._refine_to(k)
        return self._surd(self._cylinders[k - 1])

    def depth_for(self, delta, max_depth: int = 100_000) -> int:
        """Minimal k whose word regions all have diameter < delta.

        Two points at circle distance >= delta then cannot share their
        first k itinerary symbols, so depth_for(delta) certifies
        symbolic separation for any pair delta apart.  The gap bound
        diameter(k) < delta is required too, which matters only for
        delta > 1/2.

        delta*M*L = du + dv*sqrt(d) in integers, with L the lcm of
        delta's denominators, so depth k passes when du + dv*sqrt(d)
        exceeds L times the depth's larger bound.
        """
        dq = QuadSurd._coerce(delta)
        if dq is None:
            raise TypeError("delta must be QuadSurd or rational")
        if dq.sign() <= 0:
            raise ValueError("delta must be positive")
        self.alpha._join_d(dq)  # MixedFieldError for another field
        a, b, m, d = dq.a, dq.b, self._m, self._d
        scale = math.lcm(a.denominator, b.denominator)
        du = a.numerator * (scale // a.denominator) * m
        dv = b.numerator * (scale // b.denominator) * m
        k = 1
        while True:
            self._refine_to(k)
            u, v = self._bounds[k - 1]
            if surd_sign_int(du - scale * u, dv - scale * v, d) > 0:
                return k
            k += 1
            if k > max_depth:
                raise ValueError(f"no depth below {max_depth} refines past {delta}")


def atom_profile(alpha) -> AtomProfile:
    """Shared (memoized) atom profile for an angle, keyed on mod1(alpha)."""
    return _shared_profile(mod1(QuadSurd._coerce(alpha)))


_shared_profile = functools.cache(AtomProfile)
