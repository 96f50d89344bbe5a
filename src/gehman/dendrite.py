"""Gehman-style dendrite over a subshift language, with its shift map.

The tree: the root has two child arcs labeled 0 and 1, and every
accepted word w heads an arc B_w from the branch point of its parent
word to its own.  Endpoints are the infinite streams themselves.  Arc
B_w gets length 2^-|w|, so every endpoint sits at distance exactly 1
from the root and the induced map (drop the first address symbol) is
2-Lipschitz with the shift as its endpoint restriction.

Which arcs exist is delegated to a language oracle, so toy languages
and negative controls plug in beside the family subshift.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Union

from gehman.coding import DistBound, SymbolStream, lcp, shift
from gehman.family import DEFAULT_CODES, DEFAULT_CONFIG, FamilyConfig, language_of_X

NEVER = "never"

# factor sets pack each word into 64 bits, so the family model decides
# words of at most this many symbols
MAX_DECIDED_LEN = 64


def _check_word(w: str) -> str:
    if not w or any(c not in "01" for c in w):
        raise ValueError(f"arc address must be a nonempty 0/1 word, got {w!r}")
    return w


@dataclass(frozen=True)
class Root:
    def __repr__(self) -> str:
        return "Root()"


ROOT = Root()


@dataclass(frozen=True)
class Branch:
    """The branch point at the far end of arc B_w."""

    w: str

    def __post_init__(self):
        _check_word(self.w)


@dataclass(frozen=True)
class Interior:
    """A point strictly inside arc B_w, parameter t from the root side."""

    w: str
    t: Fraction

    def __post_init__(self):
        _check_word(self.w)
        if not isinstance(self.t, Fraction):
            object.__setattr__(self, "t", Fraction(self.t))
        if not 0 < self.t < 1:
            raise ValueError("interior parameter must satisfy 0 < t < 1")


@dataclass(frozen=True)
class End:
    """The endpoint reached by following an infinite address."""

    stream: SymbolStream


DendritePoint = Union[Root, Branch, Interior, End]


def interior(w: str, t) -> DendritePoint:
    """Point at parameter t along arc B_w; t in {0, 1} lands on a vertex."""
    _check_word(w)
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError("parameter must lie in [0, 1]")
    if t == 1:
        return Branch(w)
    if t == 0:
        return Branch(w[:-1]) if len(w) > 1 else ROOT
    return Interior(w, t)


class DendriteModel:
    """Arc acceptance by oracle, conjunctively closed over prefixes.

    accepts(w) is the AND of the oracle over all nonempty prefixes of
    w, so the model is prefix-closed by construction even if a custom
    oracle is not.
    """

    def __init__(self, oracle: Callable[[str], bool], name: str = "custom"):
        self._oracle = oracle
        self.name = name

    def accepts(self, w: str) -> bool:
        _check_word(w)
        return all(self._oracle(w[:k]) for k in range(1, len(w) + 1))

    def __repr__(self) -> str:
        return f"<DendriteModel {self.name}>"


def full_binary_model() -> DendriteModel:
    return DendriteModel(lambda w: True, name="full-binary")


def word_set_model(words: Iterable[str]) -> DendriteModel:
    """Language = all nonempty prefixes of the given words."""
    closure: set[str] = set()
    for w in words:
        _check_word(w)
        for k in range(1, len(w) + 1):
            closure.add(w[:k])
    return DendriteModel(lambda w: w in closure, name="word-set")


def family_model(
    codes: Iterable[str] | None = None,
    horizon: int = 10_000,
    config: FamilyConfig = DEFAULT_CONFIG,
) -> DendriteModel:
    """Model over the family subshift, inner-approximated by factor scan."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, not {horizon}")
    code_list = tuple(codes) if codes is not None else DEFAULT_CODES

    @functools.cache
    def language(n: int) -> set[str]:
        return language_of_X(code_list, n, horizon, config)

    def oracle(w: str) -> bool:
        if len(w) > MAX_DECIDED_LEN:
            raise ValueError(
                f"the family model decides words of at most {MAX_DECIDED_LEN} symbols,"
                f" not {len(w)}"
            )
        return w in language(len(w))

    return DendriteModel(oracle, name=f"family[{len(code_list)} codes]")


def apply_f(model: DendriteModel, pt: DendritePoint) -> DendritePoint:
    """One step of the induced map: drop the first address symbol.

    Branch and Interior addresses shorten by one (the whole first-level
    arc collapses to the root); endpoints shift.  The parameter t rides
    along unchanged, which is the linear choice of homeomorphism.
    """
    if isinstance(pt, Root):
        return ROOT
    if isinstance(pt, (Branch, Interior)):
        if not model.accepts(pt.w):
            raise ValueError(f"arc {pt.w!r} is not in the model")
        return replace(pt, w=pt.w[1:]) if len(pt.w) > 1 else ROOT
    if isinstance(pt, End):
        return End(shift(pt.stream, 1))
    raise TypeError(f"not a dendrite point: {pt!r}")


def steps_to_root(pt: DendritePoint) -> int | str:
    """Exact count of applications of f landing on the root, or "never"."""
    if isinstance(pt, Root):
        return 0
    if isinstance(pt, (Branch, Interior)):
        return len(pt.w)
    if isinstance(pt, End):
        return NEVER
    raise TypeError(f"not a dendrite point: {pt!r}")


def _depth(pt: DendritePoint) -> Fraction:
    # distance from the root along the unique arc toward the point
    if isinstance(pt, Root):
        return Fraction(0)
    if isinstance(pt, Branch):
        return 1 - Fraction(1, 2 ** len(pt.w))
    if isinstance(pt, Interior):
        return 1 - (2 - pt.t) * Fraction(1, 2 ** len(pt.w))
    return Fraction(1)


def _word_of(pt: DendritePoint) -> str:
    return "" if isinstance(pt, Root) else pt.w


def path_dist(u: DendritePoint, v: DendritePoint, cap: int = 64) -> DistBound:
    """Length of the unique path between u and v under the 2^-|w| metric.

    Exact dyadic value except for End/End pairs whose streams agree to
    the cap, where the result is the certified upper bound 2^(1-cap).
    """
    if isinstance(u, End) and isinstance(v, End):
        c = lcp(u.stream, v.stream, cap)
        if c >= cap:
            return DistBound(Fraction(2, 2**cap), exact=False)
        return DistBound(Fraction(2, 2**c), exact=True)
    if isinstance(u, End) or isinstance(v, End):
        e, f = (u, v) if isinstance(u, End) else (v, u)
        wf = _word_of(f)
        if not wf:
            return DistBound(Fraction(1), exact=True)
        c = lcp(wf, e.stream, len(wf))
        if c == len(wf):
            return DistBound(1 - _depth(f), exact=True)
        return DistBound(_depth(f) + 1 - 2 * (1 - Fraction(1, 2**c)), exact=True)
    wu, wv = _word_of(u), _word_of(v)
    # lcp stops at the shorter word, so any cap past it will do
    c = lcp(wu, wv, len(wu) + 1)
    if c == len(wu) or c == len(wv):
        # one root path contains the other point
        return DistBound(abs(_depth(u) - _depth(v)), exact=True)
    return DistBound(
        _depth(u) + _depth(v) - 2 * (1 - Fraction(1, 2**c)), exact=True
    )


# -- structural checks -------------------------------------------------------


def _levels(model: DendriteModel, depth: int) -> list[list[str]]:
    """Accepted words of each length 0..depth, each level lexicographic."""
    # a child of an accepted word is accepted iff the oracle accepts it
    levels = [[""]]
    for _ in range(depth):
        levels.append([w + c for w in levels[-1] for c in "01" if model._oracle(w + c)])
    return levels


def accepted_words(model: DendriteModel, n: int) -> list[str]:
    """All accepted words of length exactly n, lexicographic."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    return _levels(model, n)[-1]


@dataclass
class IsolationReport:
    n: int
    ext: int
    accepted_count: int
    violators: list[str]

    @property
    def passed(self) -> bool:
        return self.accepted_count > 0 and not self.violators


def no_isolated_points_check(
    model: DendriteModel, n: int, ext: int
) -> IsolationReport:
    """Every accepted n-word must admit two accepted (n+ext)-extensions.

    A finite surrogate for "no isolated endpoints": with finitely many
    codes it can legitimately fail at depths beyond where the sampled
    language still branches, so violators are reported, not raised.
    """
    if n < 1 or ext < 1:
        raise ValueError("need n >= 1 and ext >= 1")
    violators = []
    base = accepted_words(model, n)
    for w in base:
        found = 0
        stack = [(w, ext)]
        while stack and found < 2:
            word, remaining = stack.pop()
            if remaining == 0:
                found += 1
                continue
            for c in "10":
                nw = word + c
                if model._oracle(nw):
                    stack.append((nw, remaining - 1))
        if found < 2:
            violators.append(w)
    return IsolationReport(n=n, ext=ext, accepted_count=len(base), violators=violators)


def f_invariance_check(model: DendriteModel, depth: int) -> list[str]:
    """Addresses up to depth whose one-symbol tail is rejected (expect none)."""
    levels = _levels(model, depth)[2:]  # a one-symbol address maps to the root
    return [w for level in levels for w in level if not model.accepts(w[1:])]


def emit_graph(model: DendriteModel, depth: int) -> str:
    """DOT digraph of the branch structure down to the given depth."""
    if not 1 <= depth <= 24:
        raise ValueError("depth must be in 1..24")
    nodes = sorted(w for level in _levels(model, depth)[1:] for w in level)
    lines = ["digraph dendrite {", "  root;"]
    lines.extend(f'  "{w}";' for w in nodes)
    for w in nodes:
        parent = "root" if len(w) == 1 else f'"{w[:-1]}"'
        lines.append(f'  {parent} -> "{w}" [len="2^-{len(w)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
