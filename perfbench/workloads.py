"""Seeded call lists for the benchmark workloads.

Each workload turns a seed and a batch number into a list of ``gehman``
argument vectors.  A run draws a fresh batch for every repetition, so its
mean averages over many draws and the seed moves it little.  The seed
picks inputs and their order from fixed pools, so every call
any seed can produce is listed by :func:`universe` and has a recorded
reference output (``reference.json``, written by ``record.py``).  The
pools are built from a constant seed and never change between runs.
"""

from __future__ import annotations

import itertools
import random
from math import isqrt

CODES3 = tuple(format(v, "03b") for v in range(8))
CODES4 = tuple(format(v, "04b") for v in range(16))

_POOL_RNG = random.Random("gehman-perfbench-pools-v1")

# -- certify -----------------------------------------------------------------

PAIR_ARGS = ("--horizon", "2000", "--resolution", "10")
STURMIAN_ARGS = ("--max-shift", "30", "--horizon", "5000", "--resolution", "20")
# b-pairs of four-bit codes.  Codes that differ only in the last bit sit
# 1/729 apart and need K=433, a 7 s profile; they are left out so that a
# batch stays short.  Of the rest, the four pairs 0001/0010, 0101/0110,
# 1001/1010 and 1101/1110 need the deepest profile, K=142.
B_PAIRS = tuple(
    (s, t) for s, t in itertools.combinations(CODES4, 2) if s[:3] != t[:3]
)
DEEP_PAIRS = (("0001", "0010"), ("0101", "0110"), ("1001", "1010"), ("1101", "1110"))
PAIRS_PER_BATCH = 24
# One fresh Sturmian profile per batch (Kmax 36).  Its cost depends on
# the angle by up to a third of a batch, so the angle is fixed.
STURMIAN_ANGLE = "1/2*sqrt(5)-1/2"


def _pair_call(s: str, t: str) -> list[str]:
    return ["pair", f"b:{s}", f"b:{t}", *PAIR_ARGS]


def _sturmian_call(angle: str) -> list[str]:
    return ["sturmian-check", f"--angle={angle}", *STURMIAN_ARGS]


def certify(rng: random.Random) -> list[list[str]]:
    # one deep pair in every batch, so the shared beta profile always
    # reaches K=142
    deep = rng.choice(DEEP_PAIRS)
    rest = [p for p in B_PAIRS if p != deep]
    pairs = [deep, *rng.sample(rest, PAIRS_PER_BATCH - 1)]
    rng.shuffle(pairs)
    calls = [_pair_call(*(p if rng.random() < 0.5 else p[::-1])) for p in pairs]
    return calls + [_sturmian_call(STURMIAN_ANGLE)]


def _certify_universe() -> list[list[str]]:
    calls = [_pair_call(*p) for s, t in B_PAIRS for p in ((s, t), (t, s))]
    return calls + [_sturmian_call(STURMIAN_ANGLE)]


# -- scan-limits ---------------------------------------------------------------


def _scan_call(codes) -> list[str]:
    return ["scan", "--include-limits", "--codes-inline", ",".join(sorted(codes))]


def _neighbours(code: str) -> tuple[str, str]:
    return code[:-1] + "0", code[:-1] + "1"


def scan_limits(rng: random.Random) -> list[list[str]]:
    # Two codes that differ only in their last bit, whose b-certificate
    # needs K=82, the deepest among length-3 codes, plus one other code:
    # 9 points, 36 pairs and 6 certificates on one beta profile at K=82,
    # whatever the seed.
    pair = _neighbours(rng.choice(CODES3))
    third = rng.choice([c for c in CODES3 if c not in pair])
    return [_scan_call((*pair, third))]


def _scan_universe() -> list[list[str]]:
    return [
        _scan_call((*_neighbours(c), t))
        for c in CODES3[::2]
        for t in CODES3
        if t not in _neighbours(c)
    ]


# -- omega-factors -------------------------------------------------------------


def _omega_call(s: str, t: str) -> list[str]:
    return ["omega", s, t]


def _diamond_call(code: str) -> list[str]:
    return ["diamond", code, "--factor-len", "20"]


def _dendrite_call(codes) -> list[str]:
    return ["dendrite", "check", "--codes-inline", ",".join(sorted(codes))]


def omega_factors(rng: random.Random) -> list[list[str]]:
    # omega in both directions, so each x-stream's recurrent sets serve
    # two calls
    s, t = rng.sample(CODES4, 2)
    return [_omega_call(s, t), _omega_call(t, s), _diamond_call(s), _diamond_call(t),
            _dendrite_call((s, t))]


def _omega_universe() -> list[list[str]]:
    calls = [_omega_call(s, t) for s, t in itertools.permutations(CODES4, 2)]
    calls += [_diamond_call(c) for c in CODES4]
    calls += [_dendrite_call(p) for p in itertools.combinations(CODES4, 2)]
    return calls


# -- gen-fresh -----------------------------------------------------------------

GEN_COUNT = 1_000_000
VECTOR_CALLS = 40
EDGE_COUNT = 150_000
SCALAR_COUNT = 40_000
EDGE_SPEC = "pt:1/8@2000000000-1414213562*sqrt(2)"
_ROOTS = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19)


def _small_surd(rng: random.Random) -> str:
    p, q = rng.randrange(0, 12), rng.randrange(1, 13)
    a, b = rng.randrange(1, 10), rng.randrange(1, 13)
    sign = rng.choice("+-")
    return f"{p}/{q}{sign}{a}/{b}*sqrt({rng.choice(_ROOTS)})"


def _vector_spec(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return f"A:{_small_surd(rng)}"
    # rational start points never land on the cuts {0, 1/4}
    while True:
        num, den = rng.randrange(1, 24), rng.randrange(2, 25)
        if num % den and (4 * num) % den:
            return f"pt:{num}/{den}@{_small_surd(rng)}"


def _scalar_spec(rng: random.Random) -> str:
    # A - B*sqrt(d) with B past 1e10: the float screen's magnitude bound
    # fails inside the first chunk, so all symbols come from the exact walk.
    d = rng.choice((2, 3, 5, 7))
    b = rng.randrange(10_000_000_000, 20_000_000_000)
    return f"pt:1/8@{isqrt(b * b * d)}-{b}*sqrt({d})"


VECTOR_SPECS = tuple(_vector_spec(_POOL_RNG) for _ in range(256))
SCALAR_SPECS = tuple(_scalar_spec(_POOL_RNG) for _ in range(6))


def _gen_call(spec: str, count: int) -> list[str]:
    return ["gen", spec, str(count)]


def gen_fresh(rng: random.Random) -> list[list[str]]:
    calls = [_gen_call(s, GEN_COUNT) for s in rng.sample(VECTOR_SPECS, VECTOR_CALLS)]
    calls += [_gen_call(EDGE_SPEC, EDGE_COUNT), _gen_call(rng.choice(SCALAR_SPECS), SCALAR_COUNT)]
    rng.shuffle(calls)
    return calls


def _gen_universe() -> list[list[str]]:
    calls = [_gen_call(s, GEN_COUNT) for s in VECTOR_SPECS]
    calls.append(_gen_call(EDGE_SPEC, EDGE_COUNT))
    return calls + [_gen_call(s, SCALAR_COUNT) for s in SCALAR_SPECS]


# -- registry ------------------------------------------------------------------

WORKLOADS = {
    "scan-limits": (scan_limits, _scan_universe),
    "certify": (certify, _certify_universe),
    "omega-factors": (omega_factors, _omega_universe),
    "gen-fresh": (gen_fresh, _gen_universe),
}


def calls(name: str, seed: int, batch: int) -> list[list[str]]:
    """The argument vectors of batch number ``batch`` of workload ``name``."""
    make, _ = WORKLOADS[name]
    return make(random.Random(f"{name}:{seed}:{batch}"))


def universe(name: str) -> list[list[str]]:
    """Every argument vector that some seed of ``name`` can produce."""
    _, every = WORKLOADS[name]
    return every()


def call_key(argv: list[str]) -> str:
    """Reference-table key of one call."""
    return " ".join(argv)
