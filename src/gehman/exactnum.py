"""Exact arithmetic in a real quadratic field Q(sqrt(d)).

A value is ``a + b*sqrt(d)`` with ``a``, ``b`` rational and ``d`` a
square-free integer; purely rational values are normalized to ``d == 1``
with ``b == 0``.  Every instance keeps this canonical form: ``a`` and
``b`` are :class:`~fractions.Fraction`, ``d`` is square-free, and
``d == 1`` exactly when ``b == 0``.  The public constructor normalizes
any input into it.  ``+``, ``-``, unary ``-``, ``*``, inversion and the
coercion of an int or Fraction combine parts that are already canonical,
so they build their result with the private :meth:`QuadSurd._raw`,
which skips the square-free split and only collapses a zero ``b`` to
``d == 1``.  Every predicate that drives a symbolic decision (sign,
comparison, floor) is computed with integer arithmetic only: a comparison
hands the cross-multiplied numerators of the difference to
:func:`surd_sign_int` without building a difference surd.  There are no
floating-point fast paths in this module; callers
that want a float for display use :meth:`QuadSurd.to_float` and accept
its rounding.

All circle helpers (:func:`mod1`, :func:`rotate`,
:func:`circle_distance`) treat a "circle point" as a QuadSurd reduced
into [0, 1).  :func:`surd_floor` is the one floor of a surd; every
reduction mod 1 goes through it.  :func:`floor_sum` sums the floors
along an integer line, which counts lattice points in O(log m) steps.

Values from two genuinely different irrational fields are never
comparable; such a request raises :class:`MixedFieldError`.  Rationals
embed with ``b == 0`` and compare against either field.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import isqrt
from typing import Union

RationalLike = Union[int, Fraction]

_ZERO = Fraction(0)  # the irrational part of a coerced rational


class MixedFieldError(TypeError):
    """Comparison or arithmetic across two different irrational fields."""


def surd_sign_int(u: int, v: int, d: int) -> int:
    """Sign of u + v*sqrt(d) for integers u, v and d >= 1."""
    if v == 0:
        return (u > 0) - (u < 0)
    if u == 0:
        return 1 if v > 0 else -1
    if u > 0 and v > 0:
        return 1
    if u < 0 and v < 0:
        return -1
    # Opposite signs: |u| vs |v|*sqrt(d) decided by squaring.
    lhs = u * u
    rhs = v * v * d
    if lhs == rhs:
        return 0
    if u > 0:
        return 1 if lhs > rhs else -1
    return -1 if lhs > rhs else 1


def surd_floor(u: int, v: int, d: int, m: int) -> int:
    """floor((u + v*sqrt(d))/m) for integers u, v, d >= 1 and m >= 1.

    floor((u + x)/m) = (u + floor(x)) // m for integers u and m, and
    floor(v*sqrt(d)) is isqrt(v*v*d) rounded toward minus infinity.
    """
    root = isqrt(v * v * d)
    if v < 0:
        root = -root - (root * root != v * v * d)
    return (u + root) // m


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a*j + b)/m) over 0 <= j < n, for n >= 0 and m >= 1.

    Euclid-like reduction (Graham, Knuth and Patashnik, Concrete
    Mathematics, section 3.5): take the whole parts of a/m and b/m out
    of the sum, then count the same lattice points under the line with
    the axes swapped, m and a trading places.  Each round is one integer
    division, so the cost is O(log m) rounds for any integers a and b.
    """
    total = 0
    while True:
        total += n * (n - 1) // 2 * (a // m) + n * (b // m)
        a, b = a % m, b % m
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _sign(a: Fraction, b: Fraction, d: int) -> int:
    # Clear denominators (both positive) and defer to the integer form.
    return surd_sign_int(
        a.numerator * b.denominator, b.numerator * a.denominator, d
    )


def _square_split(d: int) -> tuple[int, int]:
    """Largest f with f*f dividing d, and the square-free core d // (f*f)."""
    f = 1
    core = d
    p = 2
    while p * p <= core:
        sq = p * p
        while core % sq == 0:
            core //= sq
            f *= p
        p += 1
    return f, core


class QuadSurd:
    """Immutable exact real ``a + b*sqrt(d)``.

    ``d`` is normalized square-free; a zero irrational part collapses to
    ``d == 1``.  Instances must be treated as immutable (they are hashed
    and shared).
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, d: int = 1):
        a = Fraction(a)
        b = Fraction(b)
        if d != int(d):
            raise ValueError("field parameter d must be an integer")
        d = int(d)
        if d < 1:
            raise ValueError("field parameter d must be positive")
        if b == 0:
            d = 1
        else:
            f, core = _square_split(d)
            if f != 1:
                b *= f
                d = core
            if d == 1:
                a += b
                b = Fraction(0)
        self.a = a
        self.b = b
        self.d = d

    @classmethod
    def _raw(cls, a: Fraction, b: Fraction, d: int) -> "QuadSurd":
        """The surd of canonical parts: Fraction a and b, square-free d.

        Its only normalization is the collapse of b == 0 to d == 1, so d
        must come from a canonical operand of the same field.
        """
        new = object.__new__(cls)
        new.a = a
        new.b = b
        new.d = d if b else 1
        return new

    # -- classification ------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    def sign(self) -> int:
        return _sign(self.a, self.b, self.d)

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(value) -> "QuadSurd | None":
        if isinstance(value, QuadSurd):
            return value
        if isinstance(value, (int, Fraction)):
            a = value if isinstance(value, Fraction) else Fraction(value)
            return QuadSurd._raw(a, _ZERO, 1)
        return None

    def _join_d(self, other: "QuadSurd") -> int:
        if self.b == 0:
            return other.d
        if other.d == 1 or other.b == 0:
            return self.d
        if self.d != other.d:
            raise MixedFieldError(
                f"cannot combine sqrt({self.d}) with sqrt({other.d})"
            )
        return self.d

    def __add__(self, other):
        if isinstance(other, QuadSurd):
            d = self._join_d(other)
            return QuadSurd._raw(self.a + other.a, self.b + other.b, d)
        if isinstance(other, (int, Fraction)):
            return QuadSurd._raw(self.a + other, self.b, self.d)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QuadSurd._raw(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if isinstance(other, QuadSurd):
            d = self._join_d(other)
            return QuadSurd._raw(self.a - other.a, self.b - other.b, d)
        if isinstance(other, (int, Fraction)):
            return QuadSurd._raw(self.a - other, self.b, self.d)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadSurd._raw(other - self.a, -self.b, self.d)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, QuadSurd):
            d = self._join_d(other)
            return QuadSurd._raw(
                self.a * other.a + self.b * other.b * d,
                self.a * other.b + self.b * other.a,
                d,
            )
        if isinstance(other, (int, Fraction)):
            return QuadSurd._raw(self.a * other, self.b * other, self.d)
        return NotImplemented

    __rmul__ = __mul__

    def _inverse(self) -> "QuadSurd":
        if self.sign() == 0:
            raise ZeroDivisionError("division by zero surd")
        norm = self.a * self.a - self.b * self.b * self.d
        # norm == 0 would force a = b = 0 (sqrt(d) irrational), caught above
        return QuadSurd._raw(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self._inverse()

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __bool__(self) -> bool:
        return self.sign() != 0

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # Structural: canonical form makes value equality across distinct
        # (a, b, d) impossible, and mixed fields are simply unequal.
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def _compare(self, other) -> int:
        """Sign of self - other, from cross-multiplied numerators.

        (a1 - a2) + (b1 - b2)*sqrt(d) times the positive a1.den*a2.den *
        b1.den*b2.den is an integer pair, so no difference surd is built.
        """
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare QuadSurd with {type(other).__name__}")
        d = self._join_d(o)
        a1, a2, b1, b2 = self.a, o.a, self.b, o.b
        qa = a1.denominator * a2.denominator
        qb = b1.denominator * b2.denominator
        return surd_sign_int(
            (a1.numerator * a2.denominator - a2.numerator * a1.denominator) * qb,
            (b1.numerator * b2.denominator - b2.numerator * b1.denominator) * qa,
            d,
        )

    def __lt__(self, other):
        return self._compare(other) < 0

    def __le__(self, other):
        return self._compare(other) <= 0

    def __gt__(self, other):
        return self._compare(other) > 0

    def __ge__(self, other):
        return self._compare(other) >= 0

    # -- floor and display ----------------------------------------------

    def __floor__(self) -> int:
        a, b = self.a, self.b
        return surd_floor(
            a.numerator * b.denominator,
            b.numerator * a.denominator,
            self.d,
            a.denominator * b.denominator,
        )

    def to_float(self) -> float:
        """Float approximation. Display only, never used in decisions."""
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        mag = abs(self.b)
        root = f"sqrt({self.d})" if mag == 1 else f"{mag}*sqrt({self.d})"
        if self.a == 0:
            return root if self.b > 0 else f"-{root}"
        joiner = " - " if self.b < 0 else " + "
        return f"{self.a}{joiner}{root}"

    def __repr__(self) -> str:
        return f"QuadSurd({self})"


def mod1(x) -> QuadSurd:
    """Reduce x into [0, 1): x minus its exact floor."""
    xq = QuadSurd._coerce(x)
    if xq is None:
        raise TypeError("mod1 expects a QuadSurd or rational input")
    return xq - math.floor(xq)


def rotate(p, alpha) -> QuadSurd:
    """One rotation step: mod1(p + alpha)."""
    pq = QuadSurd._coerce(p)
    if pq is None:
        raise TypeError("rotate expects QuadSurd or rational inputs")
    return mod1(pq + alpha)


def circle_distance(x, y) -> QuadSurd:
    """Shorter arc length between two circle points, in [0, 1/2]."""
    t = mod1(QuadSurd._coerce(x) - y)
    if t <= Fraction(1, 2):
        return t
    return 1 - t


# -- textual surd literals ----------------------------------------------


# One signed term of a surd literal, each space standing for optional
# whitespace: [+|-] INT [/ INT] [* sqrt(INT)]  or  [+|-] sqrt(INT) [* INT] [/ INT].
# A match takes the whitespace after its term, so the next starts at a sign.
_SURD_TERM = (
    r"(?P<sign>[-+]?) (?:(?P<num>\d+) (?:/ (?P<den>\d+) )?(?:\* sqrt \( (?P<root>\d+) \) )?"
    r"|sqrt \( (?P<root2>\d+) \) (?:\* (?P<num2>\d+) )?(?:/ (?P<den2>\d+) )?)"
).replace(" ", r"\s*")


def parse_surd(text: str) -> QuadSurd:
    """Parse an exact surd literal such as "0/1 + 1/4*sqrt(2)".

    A literal is a sum of ``_SURD_TERM`` terms, each after the first with
    its own sign, whose roots lie in one field.  Integer components only;
    decimal points are rejected so irrational inputs cannot be silently
    approximated.
    """

    def error(at: int, message: str) -> ValueError:
        return ValueError(
            f"surd syntax error at position {at}: {message} (in {text!r})"
        )

    decimal = re.search(r"\d\.", text)
    if decimal:
        raise error(decimal.end() - 1, "decimal literals are not accepted; use fractions")
    pos = start = len(text) - len(text.lstrip())
    if start == len(text):
        raise error(start, "empty surd literal")
    term = re.compile(_SURD_TERM)
    value = QuadSurd(0)
    while pos < len(text):
        if pos > start and text[pos] not in "+-":
            raise error(pos, f"expected '+' or '-', found {text[pos]!r}")
        m = term.match(text, pos)
        if m is None:
            raise error(pos, "expected INT[/INT][*sqrt(INT)] or sqrt(INT)[*INT][/INT]")
        try:
            num, den, root = (int(m[g] or m[g + "2"] or 1) for g in ("num", "den", "root"))
        except ValueError:  # past sys.get_int_max_str_digits()
            raise error(pos, "integer has too many digits") from None
        if den == 0:
            raise error(pos, "zero denominator")
        if root == 0:
            raise error(pos, "sqrt argument must be a positive integer")
        if root >= 10**9:  # _square_split divides by every p up to sqrt(root)
            raise error(pos, "sqrt argument must be below 10^9")
        coef = Fraction(-num if m["sign"] == "-" else num, den)
        try:
            value += QuadSurd(0, coef, root)
        except MixedFieldError:
            raise error(pos, "terms mix two different square roots") from None
        pos = m.end()
    return value
