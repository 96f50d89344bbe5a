"""The code-indexed family of rotation codings and interleaved points.

A finite binary code s picks an angle alpha_s in Q(sqrt(2)) and a
rational base point r_s; the fixed second angle beta lives in
Q(sqrt(3)).  Every comparison stays inside a single quadratic field:
alpha-side values never meet beta-side values.

Streams built here:

* ``a_stream(s)``: orbit of 1/8 under alpha_s, coded from step 1 (the
  same convention as A(alpha), so the stream projects back to 1/8).
* ``b_stream(s)``: orbit of r_s under beta, coded from step 0.
* ``x_point(s)``: the interleaving a_stream(s) diamond b_stream(s).

Codes of equal length map to pairwise distinct angles and base points.
A code extended by trailing zeros denotes the same angle; the limit
constructions use exactly this aliasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from gehman.coding import RotationCoding, SymbolStream, factors
from gehman.diamond import DiamondStream, _classify_word, _factor_tables, diamond
from gehman.exactnum import QuadSurd

MAX_CODE_LEN = 20

DEFAULT_CODES = tuple(format(v, "03b") for v in range(8))


@dataclass(frozen=True)
class AlphaCode:
    """Finite binary index into the angle family, 1..20 symbols."""

    s: str

    def __post_init__(self):
        if not 1 <= len(self.s) <= MAX_CODE_LEN:
            raise ValueError(
                f"code length must be 1..{MAX_CODE_LEN}, got {len(self.s)}"
            )
        if any(c not in "01" for c in self.s):
            raise ValueError(f"code must be a 0/1 string, got {self.s!r}")

    def __str__(self) -> str:
        return self.s


CodeLike = Union[str, AlphaCode]


def _code(s: CodeLike) -> AlphaCode:
    return s if isinstance(s, AlphaCode) else AlphaCode(s)


@dataclass(frozen=True)
class FamilyConfig:
    """Parameters of the construction; defaults are the canonical ones.

    alpha_s = alpha_base + sum_i s_i * alpha_weight^-(i+1)   (i 1-based)
    r_s     = r_base     + sum_i s_i * r_weight^-(i+1)
    """

    alpha_base: QuadSurd = QuadSurd(0, Fraction(1, 8), 2)
    alpha_weight: int = 4
    r_base: Fraction = Fraction(1, 8)
    r_weight: int = 3
    beta: QuadSurd = QuadSurd(0, Fraction(1, 8), 3)


DEFAULT_CONFIG = FamilyConfig()


def alpha_of(s: CodeLike, config: FamilyConfig = DEFAULT_CONFIG) -> QuadSurd:
    """Exact angle alpha_s; irrational, inside (0, 1/2)."""
    code = _code(s)
    offset = sum(
        (Fraction(int(c), config.alpha_weight ** (i + 2)) for i, c in enumerate(code.s)),
        Fraction(0),
    )
    return config.alpha_base + offset


def r_of(s: CodeLike, config: FamilyConfig = DEFAULT_CONFIG) -> Fraction:
    """Exact rational base point r_s; never 0 or 1/4 (denominator is a
    power of 3 times 8)."""
    code = _code(s)
    return config.r_base + sum(
        Fraction(int(c), config.r_weight ** (i + 2)) for i, c in enumerate(code.s)
    )


_STREAMS: dict[tuple, SymbolStream] = {}


def a_stream(s: CodeLike, config: FamilyConfig = DEFAULT_CONFIG) -> RotationCoding:
    """Coding of the orbit of 1/8 under alpha_s, symbols from step 1.

    Rational start, irrational angle: no orbit point can hit a rational
    cut exactly, so cut-point collisions cannot fire.
    """
    code = _code(s)
    key = ("a", code.s, config)
    st = _STREAMS.get(key)
    if st is None:
        alpha = alpha_of(code, config)
        st = RotationCoding(Fraction(1, 8) + alpha, alpha, label=f"a:{code}")
        _STREAMS[key] = st
    return st


def b_stream(s: CodeLike, config: FamilyConfig = DEFAULT_CONFIG) -> RotationCoding:
    """Coding of the orbit of r_s under beta, symbols from step 0."""
    code = _code(s)
    key = ("b", code.s, config)
    st = _STREAMS.get(key)
    if st is None:
        st = RotationCoding(r_of(code, config), config.beta, label=f"b:{code}")
        _STREAMS[key] = st
    return st


@dataclass(frozen=True)
class XPoint:
    """A family point: the interleaving of the two codings for one code."""

    code: AlphaCode
    stream: DiamondStream


def x_stream(s: CodeLike, config: FamilyConfig = DEFAULT_CONFIG) -> DiamondStream:
    code = _code(s)
    key = ("x", code.s, config)
    st = _STREAMS.get(key)
    if st is None:
        st = DiamondStream(
            a_stream(code, config), b_stream(code, config), label=f"x:{code}"
        )
        _STREAMS[key] = st
    return st


def x_point(s: CodeLike, config: FamilyConfig = DEFAULT_CONFIG) -> XPoint:
    code = _code(s)
    return XPoint(code, x_stream(code, config))


def language_of_X(
    codes: Iterable[CodeLike],
    n: int,
    horizon: int,
    config: FamilyConfig = DEFAULT_CONFIG,
) -> set[str]:
    """Union of the length-n factors of x_s over the given codes.

    A finite inner approximation of the length-n language of the full
    orbit-closure union; monotone in both the code set and the horizon.
    """
    code_list = [_code(s) for s in codes]
    if not code_list:
        raise ValueError("language_of_X needs at least one code")
    out: set[str] = set()
    for code in code_list:
        out |= factors(x_stream(code, config), n, horizon)
    return out


CLOSURE_CASES = ("S-side", "Z-side", "crossover-ab", "crossover-ba", "none")

def classify_closure_case(
    w: str,
    s: CodeLike,
    horizon: int = 10_000,
    config: FamilyConfig = DEFAULT_CONFIG,
) -> str:
    """Which of the four closure cases explains w for the code s.

    "S-side": factor of a_stream(s); "Z-side": factor of b_stream(s);
    "crossover-ab": an a-factor followed by a prefix of b; the symmetric
    "crossover-ba"; or "none" when nothing matches within the horizon.
    """
    if not w or any(c not in "01" for c in w):
        raise ValueError("w must be a nonempty 0/1 word")
    code = _code(s)
    a = a_stream(code, config)
    b = b_stream(code, config)
    n = len(w)
    case = _classify_word(
        w,
        _factor_tables(a, n, horizon),
        _factor_tables(b, n, horizon),
        a.prefix(n),
        b.prefix(n),
    )
    if case == "a-side":
        return "S-side"
    if case == "b-side":
        return "Z-side"
    return case if case is not None else "none"
