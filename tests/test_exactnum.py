"""Exact quadratic-surd arithmetic."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gehman.exactnum import (
    MixedFieldError,
    QuadSurd,
    circle_distance,
    floor_sum,
    mod1,
    parse_surd,
    rotate,
    surd_floor,
    surd_sign_int,
)
from oracle import sqrt_bounds

SQRT2 = QuadSurd(0, 1, 2)
SQRT3 = QuadSurd(0, 1, 3)

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=64
)


def surds(d: int):
    return st.builds(lambda a, b: QuadSurd(a, b, d), rationals, rationals)


@st.composite
def surd_literals(draw):
    """A surd literal built from its parts, with the QuadSurd of those parts."""
    space = st.sampled_from(["", " ", "  ", "\t", "\n "])
    d = draw(st.sampled_from([2, 3, 5]))
    text, value = draw(space), QuadSurd(0)
    for first in [True] + [False] * draw(st.integers(0, 3)):
        sign = draw(st.sampled_from(["", "+", "-"] if first else ["+", "-"]))
        num = draw(st.integers(0, 10**12))
        den = draw(st.integers(1, 10**12))
        rational = f"{num}{draw(space)}/{draw(space)}{den}" if den > 1 else f"{num}"
        root = draw(st.sampled_from([1, 4, d, 4 * d, 9 * d]))
        sqrt = f"sqrt{draw(space)}({draw(space)}{root}{draw(space)})"
        star = f"{draw(space)}*{draw(space)}"
        form = draw(st.sampled_from(["q", "q*r", "r", "r*q", "r/n"]))
        if form == "q":
            root = 1
        if form == "r":
            num = den = 1
        if form == "r/n":
            num = 1
        term = {
            "q": rational,
            "q*r": rational + star + sqrt,
            "r": sqrt,
            "r*q": sqrt + star + rational,
            "r/n": f"{sqrt}{draw(space)}/{draw(space)}{den}",
        }[form]
        text += f"{sign}{draw(space)}{term}{draw(space)}"
        part = QuadSurd(0, Fraction(num, den), root)
        value += -part if sign == "-" else part
    return text, value


class TestConstruction:
    def test_perfect_square_collapses_to_rational(self):
        q = QuadSurd(0, 1, 4)
        assert q.is_rational
        assert q == QuadSurd(2)
        assert q.as_fraction() == 2

    def test_square_factor_extracted(self):
        q = QuadSurd(0, 2, 8)
        assert q.d == 2
        assert q.b == 4

    def test_zero_irrational_part_normalizes_d(self):
        assert QuadSurd(1, 0, 2) == QuadSurd(1, 0, 3)
        assert QuadSurd(1, 0, 2).d == 1

    def test_invalid_d(self):
        with pytest.raises(ValueError):
            QuadSurd(0, 1, 0)
        with pytest.raises(ValueError):
            QuadSurd(0, 1, -2)

    def test_as_fraction_rejects_irrational(self):
        with pytest.raises(ValueError):
            SQRT2.as_fraction()


class TestArithmetic:
    def test_sqrt2_squares_to_two(self):
        assert SQRT2 * SQRT2 == QuadSurd(2)

    def test_conjugate_product_is_rational(self):
        assert (QuadSurd(1, 1, 2)) * (QuadSurd(1, -1, 2)) == QuadSurd(-1)

    def test_division_inverts(self):
        q = QuadSurd(Fraction(3, 7), Fraction(-2, 5), 3)
        assert q / q == QuadSurd(1)
        assert (q / 4) * 4 == q

    def test_floor_examples(self):
        assert math.floor(SQRT2) == 1
        assert math.floor(-SQRT2) == -2
        assert math.floor(QuadSurd(3)) == 3
        # 577/408 is a Pell convergent a hair above sqrt(2); float floor
        # would round the difference to zero either way
        assert (SQRT2 - Fraction(577, 408)).sign() == -1
        assert math.floor(QuadSurd(Fraction(577, 408)) - SQRT2) == 0
        assert math.floor(SQRT2 - Fraction(577, 408)) == -1

    @given(surds(2))
    def test_floor_bracketing(self, q):
        f = math.floor(q)
        assert QuadSurd(f) <= q < QuadSurd(f + 1)

    @given(surds(5), surds(5))
    def test_ordering_trichotomy(self, x, y):
        assert (x < y) + (x == y) + (y < x) == 1
        assert (x - y).sign() == -(y - x).sign()

    @given(surds(3), surds(3), surds(3))
    def test_ring_identities(self, x, y, z):
        assert x * (y + z) == x * y + x * z
        assert (x - y) + y == x

    def test_mixed_field_rejected(self):
        with pytest.raises(MixedFieldError):
            SQRT2 + SQRT3
        for x, y in ((SQRT2, SQRT3), (QuadSurd(1, 1, 2), QuadSurd(1, 1, 3))):
            for op in ("__lt__", "__le__", "__gt__", "__ge__"):
                with pytest.raises(MixedFieldError):
                    getattr(x, op)(y)

    @given(
        st.one_of(
            st.tuples(surds(7), surds(7)),
            st.tuples(surds(2), rationals),
            st.tuples(rationals, surds(3)),
            st.tuples(surds(5), rationals.map(QuadSurd)),
            st.tuples(rationals.map(QuadSurd), rationals),
            surds(13).map(lambda x: (x, QuadSurd(x.a, x.b, x.d))),
            rationals.map(lambda q: (QuadSurd(q), q)),
            st.integers(-8, 8).map(lambda n: (QuadSurd(n, 1, 2), n)),
        )
    )
    def test_order_agrees_with_sign_of_difference(self, pair):
        x, y = pair
        sign = (x - y).sign()
        assert (x < y, x <= y, x > y, x >= y) == (
            sign < 0, sign <= 0, sign > 0, sign >= 0
        )
        if isinstance(y, QuadSurd):
            assert (y < x, y >= x) == (sign > 0, sign <= 0)
        else:
            # the reflected operators of int and Fraction
            assert (y < x, y <= x, y > x, y >= x) == (
                sign > 0, sign >= 0, sign < 0, sign <= 0
            )

    def test_order_rejects_non_numbers(self):
        for other in (1.5, "1", None):
            for op in ("__lt__", "__le__", "__gt__", "__ge__"):
                with pytest.raises(TypeError):
                    getattr(SQRT2, op)(other)
            with pytest.raises(TypeError):
                SQRT2 < other

    def test_rational_bridges_fields(self):
        assert QuadSurd(1, 0, 2) + SQRT3 == QuadSurd(1, 1, 3)

    def test_surd_floor_examples(self):
        assert surd_floor(0, 1, 2, 1) == 1
        assert surd_floor(0, -1, 2, 1) == -2
        assert surd_floor(3, 0, 2, 2) == 1
        assert surd_floor(-3, 0, 2, 2) == -2
        # perfect squares: v*sqrt(d) is an integer and needs no rounding
        assert surd_floor(0, -3, 4, 1) == -6
        assert surd_floor(1, -3, 4, 7) == -1
        # 577/408 is a Pell convergent a hair above sqrt(2)
        assert surd_floor(577, -408, 2, 1) == 0
        assert surd_floor(-577, 408, 2, 1) == -1

    @given(
        st.integers(-(10**30), 10**30),
        st.integers(-(10**30), 10**30),
        st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13, 1009]),
        st.integers(1, 10**12),
    )
    def test_surd_floor_against_interval_oracle(self, u, v, d, m):
        prec = 64
        while True:
            lo, hi = sqrt_bounds(d, prec)
            ends = sorted((u + v * lo, u + v * hi))
            fl = [math.floor(e / m) for e in ends]
            if fl[0] == fl[1]:
                break
            prec *= 2
        assert surd_floor(u, v, d, m) == fl[0]

    def test_surd_sign_int(self):
        assert surd_sign_int(0, 1, 2) == 1
        assert surd_sign_int(2, -1, 2) == 1
        assert surd_sign_int(1, -1, 2) == -1
        assert surd_sign_int(0, 0, 7) == 0


def brute_floor_sum(n, m, a, b):
    return sum((a * j + b) // m for j in range(n))


class TestFloorSum:
    @given(
        st.integers(0, 200),
        st.one_of(st.integers(1, 50), st.sampled_from([2**62, 2**64]),
                  st.integers(1, 2**70)),
        st.integers(-(2**72), 2**72),
        st.integers(-(2**72), 2**72),
    )
    def test_against_brute_force(self, n, m, a, b):
        assert floor_sum(n, m, a, b) == brute_floor_sum(n, m, a, b)

    @pytest.mark.parametrize("m", [1, 7, 2**62, 2**64])
    def test_edges(self, m):
        # a and b at, above and below multiples of m
        near = [0, 5, m, 3 * m + 1, -2 * m + 3, -1]
        for a in near:
            for b in near:
                for n in (0, 1, 2, 97):
                    assert floor_sum(n, m, a, b) == brute_floor_sum(n, m, a, b)

    def test_empty_and_single(self):
        assert floor_sum(0, 2**62, 2**63 + 1, 5 * 2**62) == 0
        assert floor_sum(1, 2**64, 2**70, 3 * 2**64 + 1) == 3

    @settings(max_examples=20)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
    def test_long_pieces_against_numpy(self, a, b):
        # n = 2^17 terms at m = 2^62, the size of one generation piece
        n, m = 1 << 17, 2**62
        j = np.arange(n, dtype=object)
        assert floor_sum(n, m, a, b) == int(((a * j + b) // m).sum())


class TestCircle:
    def test_mod1_examples(self):
        assert mod1(SQRT2) == SQRT2 - 1
        assert mod1(QuadSurd(-3, 1, 2)) == SQRT2 - 1
        assert mod1(Fraction(9, 4)) == QuadSurd(Fraction(1, 4))

    def test_rotate(self):
        assert rotate(Fraction(7, 8), Fraction(1, 4)) == QuadSurd(Fraction(1, 8))

    def test_circle_distance_examples(self):
        assert circle_distance(Fraction(1, 8), Fraction(7, 8)) == QuadSurd(
            Fraction(1, 4)
        )
        assert circle_distance(0, Fraction(1, 2)) == QuadSurd(Fraction(1, 2))

    @given(rationals, rationals)
    def test_circle_distance_properties(self, x, y):
        d = circle_distance(x, y)
        assert d == circle_distance(y, x)
        assert QuadSurd(0) <= d <= QuadSurd(Fraction(1, 2))

    @given(surds(2))
    def test_mod1_range(self, q):
        r = mod1(q)
        assert QuadSurd(0) <= r < QuadSurd(1)
        assert (q - r).is_rational
        assert (q - r).as_fraction().denominator == 1


@st.composite
def field_operands(draw):
    """A surd of one field, and a surd of that field, a Fraction or an int."""
    d = draw(st.sampled_from([2, 3, 5, 6]))
    x = draw(surds(d))
    y = draw(st.one_of(surds(d), rationals, st.integers(-8, 8), st.just(0)))
    return x, y


def assert_canonical(r):
    # the public constructor normalizes: equal parts and hash mean r was
    # already in canonical form
    n = QuadSurd(r.a, r.b, r.d)
    assert (type(r.a), type(r.b), type(r.d)) == (Fraction, Fraction, int)
    assert (r.a, r.b, r.d) == (n.a, n.b, n.d)
    assert hash(r) == hash(n)


class TestCanonicalResults:
    """Results built from canonical parts equal a full normalization."""

    @given(field_operands())
    def test_arithmetic_and_circle_results(self, pair):
        x, y = pair
        results = [x + y, y + x, x - y, y - x, -x, x * y, y * x, x * 0, 0 * x]
        results += [x - x, (x + y) - x]  # parts that cancel
        results += [mod1(x), mod1(y), circle_distance(x, y), circle_distance(y, x)]
        results.append(x * QuadSurd(x.a, -x.b, x.d))  # conjugates: rational
        if y != 0:
            results += [x / y, y / x] if x != 0 else [x / y]
        for r in results:
            assert_canonical(r)

    def test_mixed_fields_still_raise(self):
        for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__lt__"):
            with pytest.raises(MixedFieldError):
                getattr(SQRT2, op)(SQRT3)
        with pytest.raises(MixedFieldError):
            circle_distance(SQRT2, SQRT3)


class TestParse:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1/4*sqrt(2)", QuadSurd(0, Fraction(1, 4), 2)),
            ("0/1+1/4*sqrt(2)", QuadSurd(0, Fraction(1, 4), 2)),
            ("-1+sqrt(2)", QuadSurd(-1, 1, 2)),
            ("17/72", QuadSurd(Fraction(17, 72))),
            ("2", QuadSurd(2)),
            ("1 - 1/2*sqrt(2)", QuadSurd(1, Fraction(-1, 2), 2)),
            ("sqrt(12)", QuadSurd(0, 2, 3)),
            (" + sqrt ( 8 ) / 4 ", QuadSurd(0, Fraction(1, 2), 2)),
            ("sqrt(2) * 3/4 - sqrt(2)", QuadSurd(0, Fraction(-1, 4), 2)),
            ("sqrt(2) - sqrt(2) + sqrt(3)", QuadSurd(0, 1, 3)),
            ("\u0663/4", QuadSurd(Fraction(3, 4))),
            ("sqrt(999999999)", QuadSurd(0, 3, 111111111)),
        ],
    )
    def test_parse_values(self, text, value):
        assert parse_surd(text) == value

    @pytest.mark.parametrize(
        "text",
        [
            "", "   ", "sqrt()", "1+", "sqrt(-1)", "q:1", "1*2*3", "1//2",
            "1/0", "sqrt(2)/0", "sqrt(2)*3/0", "sqrt(0)", "2sqrt(2)",
            "sqrt(2)*sqrt(3)", "1+-1", "--1", "1*2", "+", "sqrt(2)+sqrt(3)",
            "1 2", "sq rt(2)", "SQRT(2)", "sqrt(2)/4*3", "1²",
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError, match=r"^surd syntax error at position \d+: "):
            parse_surd(text)

    @pytest.mark.parametrize("text", ["1.5", "sqrt(2.0)", "1/8 + 0.25*sqrt(2)"])
    def test_parse_rejects_decimals_with_a_hint(self, text):
        hint = "decimal literals are not accepted; use fractions"
        with pytest.raises(ValueError, match=rf"^surd syntax error at position \d+: {hint} "):
            parse_surd(text)

    @pytest.mark.parametrize("text, at, message", [
        # trial division up to sqrt(d) took 0.28 s on this root and never
        # ends on a 31-digit prime
        ("sqrt(999999999989)", 0, "sqrt argument must be below 10^9"),
        ("1 + 2*sqrt(1000000000)", 2, "sqrt argument must be below 10^9"),
        # int() raised its own error, naming sys.set_int_max_str_digits
        ("1/8 - 1/" + "1" * 5000, 4, "integer has too many digits"),
    ], ids=["prime-root", "root-at-bound", "5000-digit-denominator"])
    def test_parse_rejects_oversized_integers(self, text, at, message):
        with pytest.raises(ValueError) as exc:
            parse_surd(text)
        assert str(exc.value) == (
            f"surd syntax error at position {at}: {message} (in {text!r})"
        )

    @settings(max_examples=300)
    @given(surd_literals())
    def test_parse_reads_literals_built_from_parts(self, case):
        text, value = case
        assert parse_surd(text) == value

    @given(surds(2))
    def test_repr_round_trips(self, q):
        assert parse_surd(str(q)) == q
