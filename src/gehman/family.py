"""The code-indexed family of rotation codings and interleaved points.

A finite binary code s picks an angle alpha_s in Q(sqrt(2)) and a
rational base point r_s; the fixed second angle beta lives in
Q(sqrt(3)).  Every comparison stays inside a single quadratic field:
alpha-side values never meet beta-side values.

Streams built here:

* ``a_stream(s)``: orbit of 1/8 under alpha_s, coded from step 1 (the
  same convention as A(alpha), so the stream projects back to 1/8).
* ``b_stream(s)``: orbit of r_s under beta, coded from step 0.
* ``x_stream(s)``: the interleaving a_stream(s) diamond b_stream(s).

Each stream is built once per (kind, code, config) and shared.

Codes of equal length map to pairwise distinct angles and base points.
A code extended by trailing zeros denotes the same angle; the limit
constructions use exactly this aliasing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from gehman.coding import RotationCoding, SymbolStream, factors
from gehman.diamond import DiamondStream
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

    def __post_init__(self):
        # the Cantor and monotone argument needs weights >= 3: weight 1
        # gives alpha_01 = alpha_10, and r_weight 2 puts r_01 on the cut 1/4
        for name in ("alpha_weight", "r_weight"):
            weight = getattr(self, name)
            if weight < 3:
                raise ValueError(f"{name} must be at least 3, got {weight}")
        # a rational angle gives a periodic coding, and lets an orbit hit a cut
        for name in ("alpha_base", "beta"):
            value = getattr(self, name)
            if not isinstance(value, QuadSurd) or value.is_rational:
                raise ValueError(f"{name} must be an irrational QuadSurd, got {value!r}")
        if not isinstance(self.r_base, (int, Fraction)):
            raise ValueError(f"r_base must be a Fraction, got {self.r_base!r}")
        # r_s - r_base = N / w^21 for the integer N < w^20 whose 20 base-w
        # digits are the code padded with zeros, so some code puts r_s on a
        # cut c mod 1 iff ((c - r_base) mod 1) * w^21 is such an N
        w = self.r_weight
        for cut in (Fraction(0), Fraction(1, 4)):
            N = (cut - self.r_base) % 1 * w ** (MAX_CODE_LEN + 1)
            digits = [int(N) // w ** i % w for i in range(MAX_CODE_LEN - 1, -1, -1)]
            if N.denominator == 1 and N < w ** MAX_CODE_LEN and max(digits) <= 1:
                code = "".join(map(str, digits)).rstrip("0") or "0"
                raise ValueError(
                    f"r_base = {self.r_base} puts r_s on the cut {cut} for code {code}"
                )


DEFAULT_CONFIG = FamilyConfig()


def _code_offset(code: AlphaCode, weight: int) -> Fraction:
    """sum_i s_i * weight^-(i+1) over the code, i 1-based: N / weight^(len+1).

    N is the code read as a base-weight integer, built by Horner's rule
    since ``int(code, weight)`` stops at base 36.
    """
    N = 0
    for c in code.s:
        N = N * weight + int(c)
    return Fraction(N, weight ** (len(code.s) + 1))


def alpha_of(s: CodeLike, config: FamilyConfig = DEFAULT_CONFIG) -> QuadSurd:
    """Exact angle alpha_s; irrational, inside (0, 1/2)."""
    return config.alpha_base + _code_offset(_code(s), config.alpha_weight)


def r_of(s: CodeLike, config: FamilyConfig = DEFAULT_CONFIG) -> Fraction:
    """Exact rational base point r_s; never 0 or 1/4 mod 1, which
    :class:`FamilyConfig` checks for every code."""
    return config.r_base + _code_offset(_code(s), config.r_weight)


def _refuse_alias(
    kind: str, s: CodeLike, t: CodeLike, config: FamilyConfig = DEFAULT_CONFIG
) -> None:
    """Raise ValueError when codes s and t name one point of ``kind``, "x" or "b".

    r_s and alpha_s ignore trailing zeros, so e.g. 010 and 0100 alias.
    With weights >= 3 the first differing digit outweighs all later
    ones, so no other two codes share r_s, nor alpha_s.
    """
    cs, ct = _code(s), _code(t)
    if cs.s.rstrip("0") != ct.s.rstrip("0"):
        return
    r = r_of(cs, config)
    if kind == "b":
        why = f"base point r = {r}, so their b-orbits coincide"
    else:
        alpha = alpha_of(cs, config)
        why = f"angle alpha = {alpha} and base point r = {r}, so x_{cs} and x_{ct} coincide"
    raise ValueError(f"codes {cs} and {ct} alias: both have {why}")


def a_stream(s: CodeLike, config: FamilyConfig = DEFAULT_CONFIG) -> RotationCoding:
    """Coding of the orbit of 1/8 under alpha_s, symbols from step 1.

    Rational start, irrational angle: no orbit point can hit a rational
    cut exactly, so cut-point collisions cannot fire.
    """
    return _family_stream("a", _code(s).s, config)


def b_stream(s: CodeLike, config: FamilyConfig = DEFAULT_CONFIG) -> RotationCoding:
    """Coding of the orbit of r_s under beta, symbols from step 0."""
    return _family_stream("b", _code(s).s, config)


def x_stream(s: CodeLike, config: FamilyConfig = DEFAULT_CONFIG) -> DiamondStream:
    """The interleaving a_stream(s) diamond b_stream(s)."""
    return _family_stream("x", _code(s).s, config)


@functools.cache
def _family_stream(kind: str, code: str, config: FamilyConfig) -> SymbolStream:
    # one stream per (kind, code, config): repeated scans share buffers
    if kind == "x":
        a, b = a_stream(code, config), b_stream(code, config)
        return DiamondStream(a, b, label=f"x:{code}")
    if kind == "a":
        alpha = alpha_of(code, config)
        return RotationCoding(Fraction(1, 8) + alpha, alpha, label=f"a:{code}")
    return RotationCoding(r_of(code, config), config.beta, label=f"b:{code}")


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
