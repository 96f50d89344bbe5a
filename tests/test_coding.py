"""Rotation codings, word machinery, and refinement atoms."""

import functools
import importlib
import random
import re
from bisect import insort
from collections import Counter
from fractions import Fraction
from math import isqrt, lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from gehman import coding
from gehman.chaoscan import certified_b_distality, omega_scrambled_check
from gehman.coding import (
    _BLOCK,
    AtomProfile,
    CutPointCollision,
    _packed_windows,
    _unpack_words,
    PeriodicStream,
    RotationCoding,
    SymbolStream,
    WordStream,
    _near_cuts,
    _packed_bits,
    atom_profile,
    dist,
    factor_count_profile,
    factors,
    lcp,
    recurrent_factors,
    shift,
    sturmian_stream,
)
from gehman.exactnum import (
    MixedFieldError,
    QuadSurd,
    circle_distance,
    mod1,
    surd_floor,
    surd_sign_int,
)
from gehman.dendrite import family_model, no_isolated_points_check
from gehman.diamond import DiamondStream, block_start
from gehman.family import FamilyConfig, a_stream, b_stream, x_stream

SQRT2_4 = QuadSurd(0, Fraction(1, 4), 2)
SQRT3_8 = QuadSurd(0, Fraction(1, 8), 3)


class TestRotationCoding:
    def test_sturmian_frozen_prefix(self):
        assert sturmian_stream(SQRT2_4).word(5) == "10110"

    def test_against_interval_oracle(self):
        got = sturmian_stream(SQRT2_4).word(400)
        want = oracle.oracle_sturmian_A(Fraction(0), Fraction(1, 4), 2, 400)
        assert got == want

    def test_generic_start_against_oracle(self):
        rc = RotationCoding(Fraction(1, 3), SQRT3_8)
        want = oracle.oracle_orbit_word(
            Fraction(1, 3), Fraction(0), Fraction(0), Fraction(1, 8), 3, 300
        )
        assert rc.word(300) == want

    def test_shift_rotation_equivariance(self):
        # dropping n symbols equals starting n steps later
        rc = RotationCoding(Fraction(1, 8), SQRT3_8)
        for n in (1, 7, 40):
            moved = RotationCoding(mod1(rc.start + n * rc.alpha), rc.alpha)
            assert shift(rc, n).word(1000) == moved.word(1000)

    def test_symbol_is_one_based(self):
        rc = sturmian_stream(SQRT2_4)
        assert [rc.symbol(i) for i in (1, 2, 3)] == [1, 0, 1]
        with pytest.raises(ValueError):
            rc.symbol(0)

    def test_rational_angle_rejected(self):
        with pytest.raises(ValueError):
            RotationCoding(0, Fraction(1, 3))

    def test_cut_collision_start(self):
        rc = RotationCoding(Fraction(1, 4), SQRT3_8)
        with pytest.raises(CutPointCollision) as ei:
            rc.symbol(1)
        assert ei.value.index == 1

    def test_cut_collision_mid_orbit(self):
        # Chunked evaluation may surface the collision before the colliding
        # symbol is itself requested; only the reported index is contractual.
        rc = RotationCoding(mod1(-SQRT3_8), SQRT3_8)
        with pytest.raises(CutPointCollision) as ei:
            rc.word(2)
        assert ei.value.index == 2


def reference_walk(start: QuadSurd, alpha: QuadSurd, lo: int, hi: int) -> bytes:
    """Symbols lo+1..hi of RotationCoding(start, alpha) by a per-symbol walk.

    The generator's former exact path, kept as a reference: the point
    at lo is reduced once with surd_floor, and each step adds the angle
    and subtracts 1 when the point passes it, so start and alpha must be
    reduced mod 1, as RotationCoding keeps them.
    """
    d = alpha.d
    m = lcm(start.a.denominator, start.b.denominator,
            alpha.a.denominator, alpha.b.denominator)
    du, dv = int(alpha.a * m), int(alpha.b * m)
    u, v = int(start.a * m) + lo * du, int(start.b * m) + lo * dv
    u -= m * surd_floor(u, v, d, m)
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
    return bytes(out)


@st.composite
def large_angles(draw, max_den=11):
    """(start, rational part, B, d) for rotations by A - B*sqrt(d)."""
    d = draw(st.sampled_from([2, 3, 5, 7]))
    b = draw(st.integers(10**6, 10**30))
    q = draw(st.integers(1, max_den))
    a = isqrt(b * b * d) + Fraction(draw(st.integers(0, q - 1)), q)
    sq = draw(st.integers(1, max_den))
    start = Fraction(draw(st.integers(0, sq - 1)), sq)
    assume(start not in (0, Fraction(1, 4)))
    return start, a, b, d


def theta(d: int) -> QuadSurd:
    """isqrt(d*10^40) + 1 - 10^20*sqrt(d), an irrational in (0, 1)."""
    return QuadSurd(isqrt(d * 10**40) + 1, -(10**20), d)


class TestCertifiedScreen:
    """The uint64 fixed-point screen against the walk and the oracle."""

    @settings(max_examples=25)
    @given(large_angles(), st.lists(st.floats(0, 1, exclude_max=True), max_size=20))
    def test_screen_against_exact_walk_and_oracle(self, angle, picks):
        start, a, b, d = angle
        alpha = QuadSurd(a, -b, d)
        rc = RotationCoding(start, alpha)
        # two chunks, so the second is anchored at lo = 2^15
        n = 1 << 16
        rc.array(n // 2)
        got = rc.prefix(n)
        assert got == reference_walk(rc.start, rc.alpha, 0, n)
        oc = oracle.IntervalCoder(start, 0, a, -b, d)
        for k in (int(t * n) for t in picks):
            assert got[k] == oc.symbol(k)

    @settings(max_examples=15)
    @given(large_angles(max_den=10**400), st.integers(0, 1 << 17),
           st.lists(st.floats(0, 1, exclude_max=True), max_size=8))
    def test_huge_denominators_against_walk_and_oracle(self, angle, lo, picks):
        # den up to 10^400 is far past any float; every chunk is screened
        start, a, b, d = angle
        alpha = QuadSurd(a, -b, d)
        rc = RotationCoding(start, alpha)
        got = rc.prefix(lo + 300)
        assert got[lo:] == reference_walk(rc.start, rc.alpha, lo, lo + 300)
        oc = oracle.IntervalCoder(start, 0, a, -b, d)
        for k in (int(t * (lo + 300)) for t in picks):
            assert got[k] == oc.symbol(k)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("cut", ["0", "1/4"])
    @pytest.mark.parametrize("k", [7, 40_000])
    @pytest.mark.parametrize("units", [-3, -2, -1, 0, 1, 2])
    def test_points_units_from_a_cut(self, d, cut, k, units):
        # Symbol k+1 codes cut + (units + theta)*2^-64, closer to the cut
        # than the k + 1 units the screen may have rounded away by then,
        # so it must be decided exactly, on the right side and without a
        # collision.
        offset = (units + theta(d)) * Fraction(1, 2**64)
        above = units >= 0
        want = int(above) if cut == "1/4" else int(not above)
        for b in (10**6, 10**12, 10**30):
            alpha = QuadSurd(isqrt(d * b * b) + Fraction(1, 3), -b, d)
            start = mod1(Fraction(cut) + offset - k * alpha)
            got = RotationCoding(start, alpha).prefix(k + 5)
            assert got[k] == want
            oc = oracle.IntervalCoder(start.a, start.b, alpha.a, alpha.b, d)
            assert list(got[k - 3:]) == [oc.symbol(j) for j in range(k - 3, k + 5)]

    @pytest.mark.parametrize("cut", ["0", "1/4"])
    @pytest.mark.parametrize("k", [7, 40_000])
    def test_collision_past_the_screen(self, cut, k):
        # the fill before index k is clean, and the collision is found
        # by a fill anchored at index 0 or at k, for small and huge B
        msg = re.escape(f"cut-point collision at symbol index {k + 1} (point {cut})")
        for b in (10**12, 10**30):
            alpha = QuadSurd(isqrt(2 * b * b), -b, 2)
            rc = RotationCoding(mod1(Fraction(cut) - k * alpha), alpha)
            walk = functools.partial(reference_walk, rc.start, rc.alpha)

            def fill(lo, hi):
                out = np.empty(hi - lo, dtype=np.uint8)
                rc._fill(out, lo)
                return out.tobytes()

            assert fill(0, k) == walk(0, k)
            for chunk in (fill, walk):
                with pytest.raises(CutPointCollision, match=msg):
                    chunk(k, k + 5)
            with pytest.raises(CutPointCollision, match=msg) as ei:
                rc.word(k + 1)
            assert ei.value.index == k + 1

    @pytest.mark.parametrize("cut", ["0", "1/4"])
    def test_collision_inside_a_multi_piece_extension(self, cut):
        # symbol k+1 lies inside one extension, which is published only
        # once every symbol in it is decided, so none of it is
        k = 200_000
        alpha = QuadSurd(isqrt(2 * 10**24), -(10**12), 2)
        rc = RotationCoding(mod1(Fraction(cut) - k * alpha), alpha)
        for _ in range(2):
            with pytest.raises(CutPointCollision) as ei:
                rc.word(k + 1)
            assert ei.value.index == k + 1
            assert len(rc._buf) == 0
        assert rc.prefix(k) == reference_walk(rc.start, rc.alpha, 0, k)
        assert len(rc._buf) == k
        with pytest.raises(CutPointCollision) as ei:
            rc.symbol(k + 1)
        assert ei.value.index == k + 1
        assert len(rc._buf) == k


def piece_flags(x0: int, a: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per point of a piece: (x_j + n) mod 2^62 <= n, and the per-point screen.

    The screen is ((x_j + n) mod 2^64, bit 62 cleared) <= n: the window
    [x_j, x_j + n] reaches 0 or 2^62.
    """
    y = np.arange(n, dtype=np.uint64)
    y *= np.uint64(a)
    y += np.uint64((x0 + n) % 2**64)
    near = (y & np.uint64(2**62 - 1)) <= n
    screen = (y & ~np.uint64(2**62)) <= n
    return near, screen


# floor(2^64 (sqrt(2) - 1)): consecutive points of a short piece lie far apart
SPREAD = isqrt(2 * 2**128) - 2**64


@st.composite
def pieces(draw):
    """(x0, a, n) of a piece, half of them with a point put near a cut."""
    n = draw(st.integers(0, 3000))
    a = draw(st.integers(0, 2**64 - 1))
    x0 = draw(st.integers(0, 2**64 - 1))
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        cut = draw(st.integers(0, 3)) << 62
        x0 = (cut + draw(st.integers(-n - 2, 2)) - j * a) % 2**64
    return x0, a, n


class TestNearCutCount:
    """The per-piece count against the per-point predicate it counts."""

    @settings(max_examples=200)
    @given(pieces())
    def test_count_against_brute_force(self, piece):
        near, screen = piece_flags(*piece)
        assert _near_cuts(*piece) == int(near.sum())
        assert not (screen & ~near).any()

    @pytest.mark.parametrize("n", [1, 2, 300, _BLOCK + 1, 4 * _BLOCK])
    @pytest.mark.parametrize("at", ["first", "last"])
    @pytest.mark.parametrize("cut", [0, 2**62])
    @pytest.mark.parametrize("end", ["low", "high"])
    @pytest.mark.parametrize("inside", [True, False])
    def test_one_point_at_the_window_ends(self, n, at, cut, end, inside):
        # the window [x_j, x_j + n] reaches the cut at its ends when
        # x_j + n = cut (low) and x_j = cut (high); one unit further out
        # it misses the cut
        j = 0 if at == "first" else n - 1
        if end == "low":
            xj = cut - n - (not inside)
        else:
            xj = cut + (not inside)
        x0 = (xj - j * SPREAD) % 2**64
        near, screen = piece_flags(x0, SPREAD, n)
        assert _near_cuts(x0, SPREAD, n) == int(near.sum()) == int(inside)
        assert near[j] == screen[j] == inside

    @pytest.mark.parametrize("code", ["000", "101"])
    def test_clean_default_piece_takes_no_exact_step(self, monkeypatch, code):
        streams = [sturmian_stream(SQRT2_4), a_stream(code), b_stream(code)]
        want = [rc.prefix(1_000_000) for rc in streams]

        def refuse(self, i):
            raise AssertionError(f"exact step at index {i}")

        monkeypatch.setattr(RotationCoding, "_symbol_at", refuse)
        for rc, w in zip(streams, want):
            fresh = RotationCoding(rc.start, rc.alpha)
            assert fresh.prefix(1_000_000) == w
        # a point one unit above the cut 1/4 does take it
        alpha = QuadSurd(isqrt(2 * 10**24) + Fraction(1, 3), -(10**12), 2)
        start = mod1(Fraction(1, 4) + Fraction(1, 2**64) - 7 * alpha)
        with pytest.raises(AssertionError, match="exact step"):
            RotationCoding(start, alpha).prefix(10)


def planted(a: int, x0: int) -> RotationCoding:
    """The coding whose fill from index 0 has these x0 and a.

    Start (x0 + 1/2)/2^64 and angle (a + theta)/2^64, theta irrational
    in (0, 1), floor to x0 and a in 64-bit fixed point.
    """
    alpha = (a + theta(2)) * Fraction(1, 2**64)
    return RotationCoding(Fraction(2 * x0 + 1, 2**65), alpha)


def spy_screen(monkeypatch) -> list[int]:
    """Record the first symbol index of every block that runs the screen."""
    screened = []
    real = RotationCoding._decide_near

    def spy(self, out, lo):
        screened.append(lo)
        real(self, out, lo)

    monkeypatch.setattr(RotationCoding, "_decide_near", spy)
    return screened


BIG = 1 << 20
# (a, x0, extension length, starts of the blocks that hold near points)
PLANTED = {
    # x_0 = -n/2 lies just below the cut 0
    "first": (SPREAD, -BIG // 2 % 2**64, BIG, [0]),
    # x_{n-1} = -n/2
    "last": (SPREAD, (-BIG // 2 - (BIG - 1) * SPREAD) % 2**64, BIG,
             [BIG - _BLOCK]),
    # a = 2^62 + n/2 + 1: x_j = -n at the last index of block 19 and
    # x_{j+1} = 2^62 - n/2 + 1 at the first of block 20; the next point
    # is 2 units past 2^63, the one before 3n/2 + 1 units below 2^62
    "adjacent": (2**62 + BIG // 2 + 1,
                 (-BIG - (20 * _BLOCK - 1) * (2**62 + BIG // 2 + 1)) % 2**64,
                 BIG, [19 * _BLOCK, 20 * _BLOCK]),
    # a = 2^62 + 2^43: x_j mod 2^62 is -n/2 + j*2^43, near 0 only at
    # j = 0, 2^19 and 2^20, the last the one symbol of a partial block
    "periodic": (2**62 + 2**43, -(BIG + 1) // 2 % 2**64, BIG + 1,
                 [0, 16 * _BLOCK, 32 * _BLOCK]),
}


class TestNearBlocks:
    """An extension that holds a near point screens every block."""

    @pytest.mark.parametrize("case", PLANTED.values(), ids=PLANTED.keys())
    def test_only_planted_blocks_run_the_screen(self, case, monkeypatch):
        a, x0, n, blocks = case
        near, _ = piece_flags(x0, a, n)
        assert sorted({j - j % _BLOCK for j in np.flatnonzero(near).tolist()}) == blocks
        assert _near_cuts(x0, a, n) == int(near.sum())
        rc = planted(a, x0)
        screened = spy_screen(monkeypatch)
        assert rc.prefix(n) == reference_walk(rc.start, rc.alpha, 0, n)
        assert screened == list(range(0, n, _BLOCK))

    @pytest.mark.parametrize("cut", ["0", "1/4"])
    @pytest.mark.parametrize("block", [0, 17, 31])
    def test_collision_raises_at_its_index(self, cut, block, monkeypatch):
        # symbol k+1 sits exactly on the cut, in block `block` of one
        # 2^20-symbol extension; every block up to it, and no later one,
        # runs the screen, and none of the extension is published
        k = block * _BLOCK + 4321
        alpha = QuadSurd(isqrt(2 * 10**24), -(10**12), 2)
        rc = RotationCoding(mod1(Fraction(cut) - k * alpha), alpha)
        x0 = surd_floor(rc._u0 << 64, rc._v0 << 64, rc._d, rc._den) % 2**64
        assert _near_cuts(x0, rc._a, BIG)
        screened = spy_screen(monkeypatch)
        msg = re.escape(f"cut-point collision at symbol index {k + 1} (point {cut})")
        with pytest.raises(CutPointCollision, match=msg) as ei:
            rc.array(BIG)
        assert ei.value.index == k + 1
        assert screened == list(range(0, (block + 1) * _BLOCK, _BLOCK))
        assert len(rc._buf) == 0


# floors to a = 2^62 in fixed point: the points at j = 0 and 3 mod 4
# lie the same offset below 1/4 and 0, and it shrinks by sqrt(2)/4
# units a step
NEAR_ALPHA = QuadSurd(Fraction(1, 4), Fraction(1, 2**66), 2)


class TestNearBand:
    """A near block is stepped from its own exact start and screened with
    its own length as window, whatever the length of the extension."""

    # start 2^19 units below 1/4: after 10^6 steps the offset is still
    # above 2^17 units, so no point is near; with the extension length
    # as window, half the points were decided exactly.  Start 2^18 units
    # below: the offset reaches 0 near step 741,455, and only blocks 20
    # to 22, around it, take exact steps.
    @pytest.mark.parametrize("e,band", [(45, (0, 0)), (46, (20 * _BLOCK, 23 * _BLOCK))])
    def test_exact_steps_on_an_orbit_near_the_cuts(self, e, band, monkeypatch):
        n = 10**6
        rc = RotationCoding(Fraction(1, 4) - Fraction(1, 2**e), NEAR_ALPHA)
        exact = []
        real = RotationCoding._symbol_at

        def spy(self, i):
            exact.append(i)
            return real(self, i)

        monkeypatch.setattr(RotationCoding, "_symbol_at", spy)
        assert rc.prefix(n) == reference_walk(rc.start, rc.alpha, 0, n)
        assert all(band[0] <= i < band[1] for i in exact)
        assert len(exact) <= (band[1] - band[0]) // 2


EDGE_COUNTS = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 4 * _BLOCK + 1]
EDGE_SPECS = ["A:1/3+1/4*sqrt(2)", "pt:1/8@2000000000-1414213562*sqrt(2)"]


class TestFillEdges:
    """Counts at the block and piece edges of one fill."""

    @pytest.fixture(scope="class")
    def walks(self):
        from gehman.cli import parse_stream_spec

        out = {}
        for spec in EDGE_SPECS:
            rc = parse_stream_spec(spec)
            walk = reference_walk(rc.start, rc.alpha, 0, max(EDGE_COUNTS))
            out[spec] = "".join(map(str, walk))
        return out

    @pytest.mark.parametrize("spec", EDGE_SPECS)
    @pytest.mark.parametrize("n", EDGE_COUNTS)
    def test_word_and_gen_match_the_walk(self, walks, spec, n, capsys):
        from gehman.cli import main, parse_stream_spec

        rc = parse_stream_spec(spec)
        assert rc.word(n) == walks[spec][:n]
        assert main(["gen", spec, str(n)]) == 0
        assert capsys.readouterr().out == (walks[spec][:n] + "\n" if n else "")
        start, alpha = rc.start, rc.alpha
        oc = oracle.IntervalCoder(start.a, start.b, alpha.a, alpha.b, alpha.d)
        for k in {0, n // 2, n - 2, n - 1} & set(range(n)):
            assert rc.word(n)[k] == str(oc.symbol(k))

    @settings(max_examples=10)
    @given(large_angles(max_den=10**400),
           st.lists(st.integers(1, 3 * _BLOCK), min_size=50, max_size=50))
    def test_small_steps_equal_one_extension(self, angle, steps):
        start, a, b, d = angle
        alpha = QuadSurd(a, -b, d)
        grown = RotationCoding(start, alpha)
        n = 0
        for step in steps:
            n += step
            grown.array(n)
        assert grown.prefix(n) == RotationCoding(start, alpha).prefix(n)


class TestStreams:
    def test_periodic(self):
        p = PeriodicStream("011")
        assert p.word(8) == "01101101"
        assert p.label == "per:011"

    def test_word_stream_finite(self):
        w = WordStream("0101")
        assert w.word(4) == "0101"
        with pytest.raises(ValueError):
            w.word(5)

    def test_shift_composes_and_labels(self):
        p = PeriodicStream("0110")
        s = shift(shift(p, 1), 2)
        assert s.word(5) == p.word(8)[3:]
        assert s.label == "shift(per:0110,3)"
        assert shift(p, 0) is p


class TestBufferCore:
    """One append-only store per stream; array(n) is a view of it."""

    def test_array_is_read_only(self):
        x = x_stream("0110")
        arr = x.array(500)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1

    @pytest.mark.parametrize("n", [1, 700, 50_000])
    def test_array_is_a_view_without_copy(self, n):
        x = x_stream("0110")
        longer = x.array(2 * n)
        assert np.shares_memory(x.array(n), longer)

    def test_view_survives_tenfold_growth(self):
        fresh = [
            RotationCoding(Fraction(1, 3), SQRT3_8),
            DiamondStream(RotationCoding(Fraction(1, 3), SQRT3_8), sturmian_stream(SQRT2_4)),
            PeriodicStream("011"),
        ]
        for x in fresh:
            view = x.array(40_000)
            before = view.tobytes()
            x.array(400_000)
            assert view.tobytes() == before == x.prefix(40_000)
            assert len(x._buf) >= 400_000

    def test_shift_shares_the_base_store(self):
        x = x_stream("1001")
        base = x.array(5000)
        for p in (1, 37, 4000):
            view = shift(x, p).array(1000)
            assert np.shares_memory(view, base)
            assert view.tobytes() == base[p:p + 1000].tobytes()

    def test_word_stream_reads_past_end_raise(self):
        w = WordStream("0101")
        assert w.array(4).tolist() == [0, 1, 0, 1]
        for read in (lambda: w.array(5), lambda: w.prefix(5), lambda: w.symbol(5)):
            with pytest.raises(ValueError, match="has only 4 symbols"):
                read()

    def test_diamond_symbol_matches_buffer_across_block_edges(self):
        # a fresh interleaving grows block by block as the loop reads on
        d = DiamondStream(a_stream("0110"), b_stream("0110"))
        for i in range(1, 131):
            assert d.symbol(i) == d.array(i)[i - 1]
        assert d.word(130) == x_stream("0110").word(130)


def unpack(words: np.ndarray, n: int) -> list[int]:
    """The first n bits of little-endian uint64 words."""
    return np.unpackbits(words.view(np.uint8), bitorder="little")[:n].tolist()


def spy_packs(monkeypatch) -> list[int]:
    """Record how many symbols every call of ``coding._pack`` packs."""
    sizes = []
    real = coding._pack

    def spy(bits, out):
        sizes.append(len(bits))
        return real(bits, out)

    monkeypatch.setattr(coding, "_pack", spy)
    return sizes


PACKED_STREAMS = {
    "rotation": lambda: RotationCoding(Fraction(1, 3), SQRT3_8),
    "periodic": lambda: PeriodicStream("011"),
    "word": lambda: WordStream("0110" * 500),
    "shift": lambda: shift(RotationCoding(Fraction(1, 3), SQRT3_8), 37),
    "diamond": lambda: DiamondStream(a_stream("0110"), b_stream("0110")),
}


class TestPacked:
    """SymbolStream.packed: the prefix as uint64 words, packed once."""

    @settings(max_examples=30)
    @given(st.sampled_from(sorted(PACKED_STREAMS)),
           st.lists(st.integers(0, 2000), min_size=1, max_size=8))
    def test_words_hold_the_prefix(self, kind, requests):
        x = PACKED_STREAMS[kind]()
        for n in requests:
            words = x.packed(n)
            assert words.dtype == np.dtype("<u8")
            assert words.shape == (n // 64 + 1,)
            assert not words.flags.writeable
            assert unpack(words, n) == x.array(n).tolist()

    @pytest.mark.parametrize("kind,n1,n2", [
        ("periodic", 10, 40),  # the buffer holds 15 symbols at n1
        ("rotation", _BLOCK + 70, _BLOCK + 100),  # one extension of 2^15 apart
    ])
    def test_longer_request_in_the_same_last_word(self, kind, n1, n2, monkeypatch):
        # n2 falls in the partly packed last word of n1: the word is
        # packed again with the new symbols, from its first bit
        assert n1 // 64 == n2 // 64
        x = PACKED_STREAMS[kind]()
        sizes = spy_packs(monkeypatch)
        first = x.packed(n1)
        held = len(x._buf)
        assert held < n2
        words = x.packed(n2)
        assert unpack(words, n2) == x.array(n2).tolist()
        assert unpack(first, n1) == x.array(n1).tolist()
        assert sizes == [held, len(x._buf) - 64 * (held // 64)]

    def test_requests_within_the_packed_symbols_pack_nothing(self, monkeypatch):
        x = RotationCoding(Fraction(1, 3), SQRT3_8)
        whole = x.packed(5000)
        sizes = spy_packs(monkeypatch)
        for n in (0, 1, 64, 4999, 5000, _BLOCK):
            assert np.shares_memory(x.packed(n), whole)
        assert sizes == []

    def test_negative_length_and_short_word_raise(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PeriodicStream("01").packed(-1)
        with pytest.raises(ValueError, match="has only 4 symbols"):
            WordStream("0101").packed(5)

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 200])
    def test_arrays_and_words_are_packed_afresh(self, n):
        rng = np.random.default_rng(n)
        arr = rng.integers(0, 2, n + 3, dtype=np.uint8)
        text = "".join(map(str, arr.tolist()))
        for x in (arr, arr.astype(bool), arr.astype(np.int64), text):
            words = _packed_bits(x, n)
            assert words.shape == (n // 64 + 1,)
            assert unpack(words, 64 * words.size) == arr[:n].tolist() + [0] * (
                64 * words.size - n)

    @pytest.mark.parametrize("bad", [2, 255, -1])
    def test_arrays_must_hold_zero_or_one(self, bad):
        arr = np.zeros(100, dtype=np.int16)
        arr[70] = bad
        with pytest.raises(ValueError, match="^symbols must be 0 or 1$"):
            _packed_bits(arr, 100)
        assert _packed_bits(arr, 70).tolist() == [0, 0]
        with pytest.raises(ValueError, match="^input too short: fewer than 101 symbols$"):
            _packed_bits(arr, 101)


class TestWordMachinery:
    def test_lcp_and_cap(self):
        # Plain strings are the finite-word carrier; they clamp at their
        # own length while WordStream stays strict about over-reads.
        assert lcp("0110111", "0110001", 10) == 4
        assert lcp("0110111", "0110001", 3) == 3
        assert lcp("011", "0110001", 10) == 3

    def test_dist_duality_examples(self):
        x = PeriodicStream("01")
        y = PeriodicStream("00")
        assert dist(x, y, 16) == (Fraction(1, 4), True)
        assert dist("1", "0", 8) == (Fraction(1, 2), True)
        assert dist(x, x, 16) == (Fraction(1, 2**16), False)

    @given(st.integers(1, 12))
    def test_metric_lcp_duality(self, k):
        x = PeriodicStream("0110100110010110")  # Thue-Morse period chunk
        y = PeriodicStream("0110100110010111")
        value, exact = dist(x, y, 40)
        assert exact
        assert value == Fraction(1, 2 ** (lcp(x, y, 40) + 1))
        # Strict-form duality: dist < 2^-k exactly when the first k
        # symbols agree.
        assert (value < Fraction(1, 2**k)) == (lcp(x, y, 40) >= k)

    @given(st.text(alphabet="01", min_size=1, max_size=9), st.integers(1, 5))
    def test_factors_against_windows(self, word, n):
        stream = PeriodicStream(word)
        horizon = 6 * len(word)
        text = stream.word(horizon)
        want = {text[i : i + n] for i in range(horizon - n + 1)}
        assert factors(stream, n, horizon) == want

    def test_factor_monotone_in_horizon(self):
        a = sturmian_stream(SQRT2_4)
        assert factors(a, 6, 300) <= factors(a, 6, 3000)

    @pytest.mark.parametrize("n", range(1, 65))
    @settings(max_examples=40)
    @given(data=st.data())
    def test_packed_windows_against_int(self, n, data):
        size = data.draw(
            st.sampled_from([0, n - 1, n, n + 1]) | st.integers(0, 2 * n + 40)
        )
        word = data.draw(st.text(alphabet="01", min_size=size, max_size=size))
        arr = np.frombuffer(word.encode(), dtype=np.uint8) - ord("0")
        packed = _packed_windows(arr, n)
        assert packed.dtype == np.uint64
        want = [int(word[i:i + n], 2) for i in range(len(word) - n + 1)]
        assert [int(v) for v in packed] == want  # empty when len < n

    @given(st.integers(1, 64), st.data())
    def test_unpack_words_against_format(self, n, data):
        ints = data.draw(st.lists(st.integers(0, 2**n - 1), max_size=20))
        values = np.array(ints, dtype=np.uint64)
        assert _unpack_words(values, n) == [format(v, f"0{n}b") for v in ints]

    def test_unpack_words_edges(self):
        top = [2**63, 2**64 - 1, 2**63 + 5, 0]
        values = np.array(top, dtype=np.uint64)
        assert _unpack_words(values, 64) == [format(v, "064b") for v in top]
        assert _unpack_words(np.empty(0, dtype=np.uint64), 64) == []
        assert _unpack_words(np.empty(0, dtype=np.uint64), 1) == []
        assert _unpack_words(np.array([0, 1], dtype=np.uint64), 1) == ["0", "1"]

    @given(
        st.text(alphabet="01", min_size=2, max_size=200),
        st.integers(1, 8),
        st.integers(0, 150),
        st.integers(2, 5),
    )
    def test_recurrent_against_counter(self, word, n, tail_start, min_count):
        horizon = len(word)
        if tail_start + n > horizon:
            with pytest.raises(ValueError):
                recurrent_factors(word, n, horizon, tail_start, min_count)
            return
        counts = Counter(
            word[i:i + n] for i in range(tail_start, horizon - n + 1)
        )
        want = {w for w, c in counts.items() if c >= min_count}
        assert recurrent_factors(word, n, horizon, tail_start, min_count) == want

    def test_recurrent_discards_transient(self):
        x = WordStream("0" * 10 + "1" * 500)
        assert recurrent_factors(x, 2, 500, tail_start=100) == {"11"}

    @pytest.mark.parametrize("stream", [a_stream, x_stream], ids=["a", "x"])
    def test_recurrent_rejects_negative_tail_start(self, stream):
        with pytest.raises(ValueError, match="^tail_start must be nonnegative$"):
            recurrent_factors(stream("000"), 3, 1000, tail_start=-20, min_count=2)

    def test_recurrent_periodic(self):
        assert recurrent_factors(PeriodicStream("01"), 2, 1000) == {"01", "10"}

    def test_count_profile_bound(self):
        word = sturmian_stream(SQRT2_4).word(10_000)
        profile = factor_count_profile(word, 12, 10_000)
        assert len(profile) == 12
        assert all(p <= 2 * n for n, p in enumerate(profile, start=1))


def counted_words(word: str, n: int, start: int = 0, min_count: int = 1) -> set[str]:
    """Length-n words of word[start:] seen at least min_count times."""
    counts = Counter(word[i:i + n] for i in range(start, len(word) - n + 1))
    return {w for w, c in counts.items() if c >= min_count}


@pytest.fixture
def spectrum_builds(monkeypatch):
    """(label, n) of each window spectrum a stream builds while the test runs."""
    builds = []
    for cls in (SymbolStream, DiamondStream):
        def counted(self, n, horizon, tail_start, _build=cls._window_spectrum):
            builds.append((self.label, n))
            return _build(self, n, horizon, tail_start)

        monkeypatch.setattr(cls, "_window_spectrum", counted)
    return builds


class TestWindowSpectrum:
    """Every factor length is read off one memoized spectrum per stream."""

    @given(st.text(alphabet="01", min_size=1, max_size=400), st.data())
    def test_against_counter(self, word, data):
        horizon = len(word)
        stream = WordStream(word)
        lengths = data.draw(
            st.lists(st.integers(1, min(horizon, 64)), min_size=1, max_size=6)
        )
        tail_start = data.draw(st.integers(0, horizon - 1))
        min_count = data.draw(st.integers(2, 6))
        for n in lengths:
            want = counted_words(word, n)
            assert factors(stream, n, horizon) == want
            assert factors(word, n, horizon) == want
            if tail_start + n <= horizon:
                want = counted_words(word, n, tail_start, min_count)
                got = recurrent_factors(stream, n, horizon, tail_start, min_count)
                assert got == want

    @given(st.text(alphabet="01", min_size=1, max_size=400), st.integers(1, 64))
    def test_count_profile_against_counter(self, word, n_max):
        n_max = min(n_max, len(word))
        want = [len(counted_words(word, n)) for n in range(1, n_max + 1)]
        assert factor_count_profile(word, n_max, len(word)) == want
        # a word shorter than the horizon has no windows past its end
        assert factor_count_profile(word, n_max, len(word) + 7) == want
        assert factor_count_profile(WordStream(word), n_max, len(word)) == want

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_length_orders(self, order, spectrum_builds):
        word = x_stream("0110").word(3000)
        stream = WordStream(word)
        lengths = list(range(1, 25))
        if order == "descending":
            lengths.reverse()
        elif order == "shuffled":
            random.Random(7).shuffle(lengths)
        for n in lengths:
            assert factors(stream, n, 3000) == counted_words(word, n)
            got = recurrent_factors(stream, n, 3000, 30, 3)
            assert got == counted_words(word, n, 30, 3)
        # a spectrum is rebuilt only for a length longer than the one it
        # holds, and then at twice that length (at most 64)
        builds, held = [], 0
        for n in lengths:
            if n > held:
                held = max(n, min(2 * held, 64))
                builds.append(held)
        assert spectrum_builds == [("word", n) for n in builds for _ in range(2)]

    def test_longest_length_needs_no_patch(self):
        word = x_stream("0110").word(500)
        stream = WordStream(word)
        for n in (20, 20):
            assert factors(stream, n, 500) == counted_words(word, n)

    def test_words_only_in_the_patched_windows(self):
        # every 1 lies past the last full 20-window, which starts at 85
        word = "0" * 100 + "1" * 5
        stream = WordStream(word)
        assert recurrent_factors(stream, 20, 105, 0, 2) == {"0" * 20}
        assert factors(stream, 1, 105) == {"0", "1"}
        assert recurrent_factors(stream, 1, 105, 0, 5) == {"0", "1"}
        assert recurrent_factors(stream, 1, 105, 0, 6) == {"0"}
        assert recurrent_factors(stream, 4, 105, 0, 2) == {"0000", "1111"}
        assert recurrent_factors(stream, 2, 105, 0, 4) == {"00", "11"}
        assert recurrent_factors(stream, 2, 105, 0, 5) == {"00"}

    def test_tail_start_leaves_one_window(self):
        word = x_stream("1001").word(400)
        stream = WordStream(word)
        assert recurrent_factors(stream, 20, 400, 380, 2) == set()
        for n in range(1, 21):
            got = recurrent_factors(stream, n, 400, 380, 2)
            assert got == counted_words(word, n, 380, 2)

    def test_min_count_at_a_words_count(self):
        word = x_stream("0110").word(2000)
        counts = Counter(word[i:i + 9] for i in range(2000 - 9 + 1))
        stream = WordStream(word)
        factors(stream, 16, 2000)
        for w, c in counts.items():
            if c >= 2:
                assert w in recurrent_factors(stream, 9, 2000, 0, c)
                assert w not in recurrent_factors(stream, 9, 2000, 0, c + 1)

    def test_length_64(self):
        word = "".join(random.Random(3).choice("01") for _ in range(300))
        stream = WordStream(word)
        for n in (64, 63, 40, 1, 64):
            assert factors(stream, n, 300) == counted_words(word, n)
            want = counted_words(word, n, 0, 2)
            assert recurrent_factors(stream, n, 300, 0, 2) == want
        periodic = PeriodicStream("0110100110010110")
        want = counted_words(periodic.word(1000), 64, 10, 5)
        assert recurrent_factors(periodic, 64, 1000, 10) == want

    def test_horizons_answer_separately(self):
        word = x_stream("0110").word(4000)
        stream = WordStream(word)
        for horizon in (4000, 300, 4000, 300, 1000):
            for n in (12, 5):
                assert factors(stream, n, horizon) == counted_words(word[:horizon], n)

    def test_error_messages(self):
        stream = WordStream(x_stream("0110").word(200))
        factors(stream, 20, 200)
        recurrent_factors(stream, 20, 200, 0, 2)
        cases = [
            (lambda: factors(stream, 65, 200),
             "factor length must be in 1..64 (bit-packed)"),
            (lambda: factors(stream, 0, 200),
             "factor length must be in 1..64 (bit-packed)"),
            (lambda: recurrent_factors(stream, 0, 200, 0, 2),
             "factor length must be in 1..64 (bit-packed)"),
            (lambda: factors(stream, 30, 20),
             "horizon must be at least the factor length"),
            (lambda: recurrent_factors(stream, 5, 200, 0, 1),
             "min_count must be >= 2"),
            (lambda: recurrent_factors(stream, 5, 200, 196, 2),
             "insufficient horizon for the requested tail window"),
            (lambda: factor_count_profile(stream, 0, 200),
             "factor length must be in 1..64 (bit-packed)"),
            (lambda: factor_count_profile(stream, 30, 20),
             "horizon must be at least n_max"),
        ]
        for call, message in cases:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message

    def test_omega_packs_each_stream_once(self, spectrum_builds):
        # a horizon no other test uses, so every spectrum is built here
        horizon = 200_003
        rep = omega_scrambled_check(
            "0011", "1001", range(5, 21), horizon=horizon, z_horizon=9_001
        )
        assert [r.n for r in rep.rows] == list(range(5, 21))
        # x_0011, x_1001, then b_0011, b_1001, each at n = 20
        labels = ["x:0011", "x:1001", "b:0011", "b:1001"]
        assert spectrum_builds == [(label, 20) for label in labels]
        # the x-spectra are counted from the diamond blocks, so neither
        # interleaving is written out to the horizon
        for code in ("0011", "1001"):
            assert len(x_stream(code)._buf) < horizon

    def test_dendrite_check_lengths_shortest_first(self, spectrum_builds):
        # The oracle asks lengths 1..15 in order; each x-stream rebuilds
        # only at 1, 2, 4, 8 and 16.  A horizon no other test uses.
        model = family_model(["0101", "1110"], horizon=7_003)
        rep = no_isolated_points_check(model, 5, 10)
        assert rep.accepted_count > 0
        assert spectrum_builds == [
            (label, n) for n in (1, 2, 4, 8, 16) for label in ("x:0101", "x:1110")
        ]


def diamond_of(u: str, v: str) -> DiamondStream:
    return DiamondStream(WordStream(u), WordStream(v))


def assert_same_spectrum(got, want):
    assert got.n_max == want.n_max
    for field in ("values", "counts", "tail"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype
        assert g.tolist() == w.tolist()


@st.composite
def diamond_ranges(draw):
    """Source words, a horizon on or next to a block edge, a tail start
    at 0, at a block start or inside a block, and a length in 1..64."""
    size = draw(st.integers(1, 80))
    u = draw(st.text(alphabet="01", min_size=size, max_size=size))
    v = draw(st.text(alphabet="01", min_size=size, max_size=size))
    k = draw(st.integers(1, size))
    edge = draw(st.sampled_from([k * (k - 1), k * (k + 1)]))
    horizon = min(max(edge + draw(st.integers(-1, 1)), 1), size * (size + 1))
    j = draw(st.integers(1, k))
    tail_start = draw(st.sampled_from([
        0,
        block_start(j),
        block_start(j) + draw(st.integers(1, 2 * j - 1)) if j > 1 else 1,
    ]))
    # lengths up to the block size mostly take the block path
    n = draw(st.integers(1, min(k, 64)) | st.integers(1, 64))
    return u, v, horizon, min(tail_start, horizon), n


@pytest.fixture
def raw_packs(monkeypatch):
    """Lengths of the whole ranges a diamond stream packs raw."""
    packs = []
    module = importlib.import_module("gehman.diamond")
    build = module._array_spectrum
    monkeypatch.setattr(module, "_array_spectrum", lambda arr, n: packs.append(n) or build(arr, n))
    return packs


class TestDiamondSpectrum:
    """A diamond stream counts its windows from the blocks; the base
    class packs the written-out interleaving.  Both give one spectrum."""

    @staticmethod
    def both(u, v, n, horizon, tail_start):
        block = diamond_of(u, v)._window_spectrum(n, horizon, tail_start)
        base = SymbolStream._window_spectrum(diamond_of(u, v), n, horizon, tail_start)
        return block, base

    @settings(max_examples=300)
    @given(diamond_ranges())
    def test_against_packed_interleaving(self, case):
        u, v, horizon, tail_start, n = case
        assert_same_spectrum(*self.both(u, v, n, horizon, tail_start))

    @pytest.mark.parametrize("n", range(1, 65))
    def test_every_length(self, n, raw_packs):
        rng = random.Random(n)
        u, v = ("".join(rng.choice("01") for _ in range(150)) for _ in "uv")
        for horizon, tail_start in ((150 * 151, 0), (150 * 149 + 7, 9_001), (12_100, 110)):
            assert_same_spectrum(*self.both(u, v, n, horizon, tail_start))
        assert raw_packs == []  # every range holds blocks k >= n

    @pytest.mark.parametrize("horizon, tail_start, n", [
        (30, 0, 6),  # blocks 1..5 are shorter than n
        (1, 0, 1),
        (2, 1, 2),
        (990, 935, 8),  # the range lies inside block 31
        (992, 930, 3),  # the range starts in block 31, and block 31 ends late
        (4_000, 3_900, 64),
    ])
    def test_short_range_fallback(self, horizon, tail_start, n, raw_packs):
        rng = random.Random(horizon)
        u, v = ("".join(rng.choice("01") for _ in range(64)) for _ in "uv")
        assert_same_spectrum(*self.both(u, v, n, horizon, tail_start))
        assert raw_packs == [n]  # the whole range is packed raw

    @pytest.mark.parametrize("n", [0, 65])
    @pytest.mark.parametrize("horizon, tail_start, raw", [(30, 25, True), (8_000, 100, False)])
    def test_unpackable_length_raises(self, n, horizon, tail_start, raw, raw_packs):
        # symbols 26..30 lie inside block 6 and are packed raw; 101..8000
        # hold whole blocks up to 88, which the block path packs
        rng = random.Random(n)
        u, v = ("".join(rng.choice("01") for _ in range(90)) for _ in "uv")
        with pytest.raises(ValueError) as err:
            diamond_of(u, v)._window_spectrum(n, horizon, tail_start)
        assert str(err.value) == "factor length must be in 1..64 (bit-packed)"
        assert raw_packs == ([n] if raw else [])

    def test_buffered_symbols_are_sliced(self):
        rng = random.Random(5)
        u, v = ("".join(rng.choice("01") for _ in range(90)) for _ in "uv")
        x = diamond_of(u, v)
        x.array(90 * 91)
        for horizon, tail_start, n in ((8_000, 0, 20), (8_000, 4_001, 64), (50, 45, 3)):
            got = x._window_spectrum(n, horizon, tail_start)
            want = SymbolStream._window_spectrum(x, n, horizon, tail_start)
            assert_same_spectrum(got, want)

    @settings(max_examples=100)
    @given(diamond_ranges(), st.integers(2, 6))
    def test_factor_sets_against_counter(self, case, min_count):
        u, v, horizon, tail_start, n = case
        word = diamond_of(u, v).word(horizon)
        n = min(n, horizon)
        assert factors(diamond_of(u, v), n, horizon) == counted_words(word, n)
        if tail_start + n <= horizon:
            got = recurrent_factors(diamond_of(u, v), n, horizon, tail_start, min_count)
            assert got == counted_words(word, n, tail_start, min_count)

    def test_lengths_shortest_first(self, spectrum_builds):
        rng = random.Random(11)
        u, v = ("".join(rng.choice("01") for _ in range(100)) for _ in "uv")
        horizon = 100 * 101 - 3
        word = diamond_of(u, v).word(horizon)
        x = diamond_of(u, v)
        for n in range(1, 25):
            assert factors(x, n, horizon) == counted_words(word, n)
            got = recurrent_factors(x, n, horizon, 333, 3)
            assert got == counted_words(word, n, 333, 3)
        assert len(x._buf) == 0
        label = x.label
        want = [(label, n) for n in (1, 2, 4, 8, 16, 32) for _ in range(2)]
        assert spectrum_builds == want

    @pytest.mark.parametrize("short", ["a", "b", "both"])
    def test_short_sources_raise_as_array(self, short):
        # block 40 holds position 1_600, so array(1_600) asks each
        # source for 40 symbols
        u = "01" * (15 if short in ("a", "both") else 20)
        v = "0011" * (8 if short in ("b", "both") else 10)
        with pytest.raises(ValueError) as want:
            diamond_of(u, v).array(1_600)
        for n, tail_start in ((20, 16), (5, 1_590), (65, 0)):
            with pytest.raises(ValueError) as got:
                diamond_of(u, v)._window_spectrum(n, 1_600, tail_start)
            assert str(got.value) == str(want.value)
            with pytest.raises(ValueError) as got:
                recurrent_factors(diamond_of(u, v), n, 1_600, tail_start, 2)
            assert str(got.value) == str(want.value)

    def test_colliding_source_raises_as_array(self):
        def x():
            return DiamondStream(RotationCoding(mod1(-SQRT3_8), SQRT3_8), PeriodicStream("01"))

        with pytest.raises(CutPointCollision) as want:
            x().array(5_000)
        with pytest.raises(CutPointCollision) as got:
            factors(x(), 12, 5_000)
        assert (got.value.index, str(got.value)) == (want.value.index, str(want.value))


def assert_fresh_tallies(spec, arr):
    """Each length's tally off spec is the spectrum of the range arr at it."""
    for n in range(1, spec.n_max + 1):
        values, counts = coding._counts_at(spec, n)
        fresh = coding._array_spectrum(arr, n)
        assert values.dtype == fresh.values.dtype and counts.dtype == fresh.counts.dtype
        assert (values.tolist(), counts.tolist()) == (fresh.values.tolist(), fresh.counts.tolist())


@pytest.fixture
def window_packs(monkeypatch):
    """Lengths that coding._packed_windows packs while the test runs."""
    packs = []
    pack = coding._packed_windows
    monkeypatch.setattr(coding, "_packed_windows", lambda arr, n: packs.append(n) or pack(arr, n))
    return packs


def two_rotations() -> DiamondStream:
    return DiamondStream(sturmian_stream(SQRT2_4), sturmian_stream(SQRT3_8))


class TestLengthTallies:
    """A spectrum's tally at each length n <= n_max is the spectrum of
    its range at n, read without packing and kept on the spectrum."""

    @settings(max_examples=300)
    @given(
        st.text(alphabet="01", max_size=150),
        st.integers(1, 64),
        st.integers(0, 40),
        st.integers(0, 30),
        st.booleans(),
    )
    def test_words_and_arrays(self, word, n_max, extra, tail_start, as_array):
        # a word shorter than the horizon gives a range shorter than it,
        # often shorter than n_max - 1
        x = np.frombuffer(word.encode(), dtype=np.uint8) - ord("0") if as_array else word
        horizon = len(word) + extra
        spec = coding._spectrum_for(x, n_max, horizon, tail_start)
        assert_fresh_tallies(spec, coding._bits_for(x, horizon)[tail_start:])

    @pytest.mark.parametrize("make", [lambda: sturmian_stream(SQRT2_4), two_rotations,
                                      lambda: diamond_of("0110100" * 30, "1" + "01" * 100)],
                             ids=["rotation", "diamond", "word-diamond"])
    @pytest.mark.parametrize("n_max", [1, 2, 7, 20, 63, 64])
    @pytest.mark.parametrize("horizon, tail_start", [(20_000, 0), (19_997, 333), (20_000, 19_980)])
    def test_streams(self, make, n_max, horizon, tail_start, window_packs):
        # the last range holds 20 symbols: fewer than n_max - 1 for n_max >= 22
        x = make()
        spec = coding._spectrum_for(x, n_max, horizon, tail_start)
        assert spec.n_max == n_max and spec.tail.size == min(n_max - 1, horizon - tail_start)
        del window_packs[:]
        for n in range(1, n_max + 1):
            coding._counts_at(spec, n)
        assert window_packs == []  # the tail was packed with the spectrum
        assert_fresh_tallies(spec, make().array(horizon)[tail_start:])

    def test_short_range(self):
        # 4 symbols at n_max 64: the tail holds all of them, and every
        # length past 4 has no window
        spec = coding._spectrum_for("0110", 64, 64, 0)
        assert (spec.values.size, spec.tail.size) == (0, 4)
        got = [coding._counts_at(spec, n)[1].tolist() for n in range(1, 7)]
        assert got == [[2, 2], [1, 1, 1], [1, 1], [1], [], []]

    def test_rebuild_past_twice_n_max(self):
        x = sturmian_stream(SQRT2_4)
        for n, held in ((10, 10), (25, 25), (30, 50)):
            spec = coding._spectrum_for(x, n, 5_000, 7)
            assert spec.n_max == held
            assert_fresh_tallies(spec, x.array(5_000)[7:])

    def test_second_call_keeps_read_only_arrays(self):
        spec = coding._spectrum_for(two_rotations(), 20, 20_000, 100)
        for n in (20, 5, 1):
            first = coding._counts_at(spec, n)
            again = coding._counts_at(spec, n)
            assert all(a is b for a, b in zip(first, again))
            assert not any(a.flags.writeable for a in again)
            with pytest.raises(ValueError):
                again[0][0] = 0
        assert sorted(spec.tallies) == [1, 5, 20]

    @pytest.mark.parametrize("make", [lambda: sturmian_stream(SQRT3_8), two_rotations],
                             ids=["rotation", "diamond"])
    def test_length_orders_give_one_set(self, make):
        horizon = 6_000
        word = make().word(horizon)
        up, down = make(), make()
        got_up = {n: factors(up, n, horizon) for n in range(1, 65)}
        got_down = {n: factors(down, n, horizon) for n in range(64, 0, -1)}
        assert got_up == got_down
        for n in (1, 2, 13, 64):
            assert got_up[n] == counted_words(word, n)


class TestAtoms:
    def test_profiles_shared_per_angle_mod_one(self):
        assert atom_profile(SQRT3_8) is atom_profile(SQRT3_8 + 1)
        assert atom_profile(SQRT3_8) is atom_profile(mod1(SQRT3_8 - 3))
        assert atom_profile(SQRT3_8) is not atom_profile(SQRT2_4)

    def test_depth_one_gap(self):
        assert atom_profile(SQRT3_8).diameter(1) == QuadSurd(Fraction(3, 4))

    def test_gap_nonincreasing(self):
        prof = atom_profile(SQRT3_8)
        diams = [prof.diameter(k) for k in range(1, 40)]
        assert all(b <= a for a, b in zip(diams, diams[1:]))

    def test_depth_32_below_ninth(self):
        assert atom_profile(SQRT3_8).diameter(32) < QuadSurd(Fraction(1, 9))

    def test_word_region_exceeds_gap(self):
        # at sqrt(2)/4 three separate depth-3 arcs share the word 111,
        # so the region diameter is far above the largest single gap
        prof = atom_profile(SQRT2_4)
        assert prof.diameter(3) == QuadSurd(Fraction(1, 4))
        assert prof.cylinder_diameter(3) == QuadSurd(Fraction(-1, 4), Fraction(1, 2), 2)
        assert prof.depth_for(SQRT2_4) == 7

    def test_region_diameter_nonincreasing(self):
        prof = atom_profile(SQRT2_4)
        diams = [prof.cylinder_diameter(k) for k in range(1, 16)]
        assert all(b <= a for a, b in zip(diams, diams[1:]))

    def test_depth_for_rejects(self):
        prof = atom_profile(SQRT3_8)
        for delta in (0, Fraction(-1, 3), QuadSurd(0, -1, 3)):
            with pytest.raises(ValueError, match="delta must be positive"):
                prof.depth_for(delta)
        with pytest.raises(TypeError):
            prof.depth_for("x")

    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=40).filter(
            lambda r: r not in (0, Fraction(1, 4), 1)
        ),
        st.fractions(min_value=0, max_value=1, max_denominator=40).filter(
            lambda r: r not in (0, Fraction(1, 4), 1)
        ),
    )
    def test_separation_property(self, r, rp):
        # certified depth forces itineraries of separated starts apart
        if r == rp:
            return
        delta = circle_distance(r, rp)
        k = atom_profile(SQRT3_8).depth_for(delta)
        u = RotationCoding(r, SQRT3_8)
        v = RotationCoding(rp, SQRT3_8)
        assert lcp(u, v, k + 5) < k


# -- reference atom profile ------------------------------------------------
#
# The QuadSurd algorithm AtomProfile replaced: every gap recomputed at
# every depth, and word regions found by coding each arc's midpoint
# with a fresh RotationCoding.  Kept as the reference for the integer
# profile.


def reference_arc_pair_spread(l1, e1, l2, e2) -> QuadSurd:
    extent = e1 + e2
    half = QuadSurd(Fraction(1, 2))
    if QuadSurd(1) <= extent:
        return half
    g0 = mod1(l2 - l1 - e1)
    if mod1(half - g0) <= extent:
        return half
    g1 = mod1(g0 + extent)
    return max(min(g0, QuadSurd(1) - g0), min(g1, QuadSurd(1) - g1))


class ReferenceAtomProfile:
    def __init__(self, alpha):
        self.alpha = mod1(alpha)
        self._cuts: list[QuadSurd] = []
        self._diameters: list[QuadSurd] = []
        self._cyl: dict[int, QuadSurd] = {}

    def diameter(self, k: int) -> QuadSurd:
        while len(self._diameters) < k:
            i = len(self._diameters)
            for c in (QuadSurd(0), QuadSurd(Fraction(1, 4))):
                insort(self._cuts, mod1(c - i * self.alpha))
            gaps = [
                self._cuts[j + 1] - self._cuts[j]
                for j in range(len(self._cuts) - 1)
            ]
            gaps.append(QuadSurd(1) - self._cuts[-1] + self._cuts[0])
            self._diameters.append(max(gaps))
        return self._diameters[k - 1]

    def cylinder_diameter(self, k: int) -> QuadSurd:
        if k in self._cyl:
            return self._cyl[k]
        cuts = sorted(
            mod1(c - i * self.alpha)
            for c in (QuadSurd(0), QuadSurd(Fraction(1, 4)))
            for i in range(k)
        )
        groups: dict[str, list] = {}
        for j, left in enumerate(cuts):
            right = cuts[j + 1] if j + 1 < len(cuts) else cuts[0] + 1
            mid = mod1(left + (right - left) / 2)
            word = RotationCoding(mid, self.alpha).word(k)
            groups.setdefault(word, []).append((left, right - left))
        best = QuadSurd(0)
        for members in groups.values():
            for a in range(len(members)):
                for b in range(a, len(members)):
                    spread = reference_arc_pair_spread(*members[a], *members[b])
                    if best < spread:
                        best = spread
        self._cyl[k] = best
        return best

    def depth_for(self, delta) -> int:
        k = 1
        while not (self.diameter(k) < delta and self.cylinder_diameter(k) < delta):
            k += 1
        return k


def assert_same_surd(got: QuadSurd, want: QuadSurd) -> None:
    assert got == want and str(got) == str(want)


SURD_ANGLES = st.builds(
    lambda a, b, sign, d: QuadSurd(a, sign * b, d),
    st.fractions(min_value=-2, max_value=2, max_denominator=12).filter(bool),
    st.fractions(min_value=Fraction(1, 12), max_value=2, max_denominator=12),
    st.sampled_from([1, -1]),
    st.sampled_from([2, 3, 5, 7, 13]),
)


class TestAtomProfileAgainstReference:
    @settings(max_examples=5)
    @given(SURD_ANGLES)
    def test_every_depth_to_40(self, alpha):
        prof, ref = AtomProfile(alpha), ReferenceAtomProfile(alpha)
        for k in range(1, 41):
            assert_same_surd(prof.diameter(k), ref.diameter(k))
            assert_same_surd(prof.cylinder_diameter(k), ref.cylinder_diameter(k))

    def test_multi_arc_words(self):
        # sqrt(2)/4 keeps words that own several arcs (111 at depth 3)
        prof, ref = AtomProfile(SQRT2_4), ReferenceAtomProfile(SQRT2_4)
        for k in range(1, 16):
            assert_same_surd(prof.cylinder_diameter(k), ref.cylinder_diameter(k))

    @pytest.mark.parametrize("k", [70, 100, 142])
    def test_beta_deep(self, k):
        # words here are longer than 64 bits
        prof, ref = AtomProfile(SQRT3_8), ReferenceAtomProfile(SQRT3_8)
        assert_same_surd(prof.diameter(k), ref.diameter(k))
        assert_same_surd(prof.cylinder_diameter(k), ref.cylinder_diameter(k))

    def test_depth_for_non_default_config(self):
        config = FamilyConfig(
            alpha_base=QuadSurd(0, Fraction(1, 5), 2),
            beta=QuadSurd(0, Fraction(1, 7), 3),
        )
        ref = ReferenceAtomProfile(config.beta)
        codes = ["000", "001", "010", "011", "100", "101", "110", "111"]
        seen = {}
        for i, s in enumerate(codes):
            for t in codes[i + 1:]:
                cert = certified_b_distality(s, t, config=config)
                if cert.delta not in seen:
                    seen[cert.delta] = ref.depth_for(cert.delta)
                assert cert.K == seen[cert.delta]
        assert max(seen.values()) == 96


@functools.cache
def shared_reference(alpha) -> ReferenceAtomProfile:
    return ReferenceAtomProfile(alpha)


class TestDepthForAgainstReference:
    # depth_for decides in integer coordinates; the reference compares
    # QuadSurds.  Deltas above 1/2 are the only ones where diameter(k)
    # can fail while cylinder_diameter(k) passes.
    RATIONAL = [
        Fraction(1, 2), Fraction(3, 4), Fraction(3, 5), Fraction(7, 8),
        1, 2, Fraction(1, 3), Fraction(1, 10), Fraction(1, 27), Fraction(2, 81),
    ]

    @pytest.mark.parametrize("alpha", [SQRT2_4, SQRT3_8])
    @pytest.mark.parametrize("delta", RATIONAL)
    def test_rational_delta(self, alpha, delta):
        assert AtomProfile(alpha).depth_for(delta) == shared_reference(
            alpha
        ).depth_for(delta)

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([SQRT2_4, SQRT3_8]),
        st.fractions(min_value=-1, max_value=1, max_denominator=40),
        st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2), max_denominator=40),
    )
    def test_same_field_delta(self, alpha, a, b):
        delta = QuadSurd(a, b, alpha.d)
        assume(delta.sign() > 0 and Fraction(1, 40) < delta)
        assert AtomProfile(alpha).depth_for(delta) == shared_reference(
            alpha
        ).depth_for(delta)

    @pytest.mark.parametrize("alpha", [SQRT2_4, SQRT3_8])
    def test_delta_equal_to_a_recorded_bound(self, alpha):
        # the test is strict: a delta equal to depth k's bound fails at k
        prof, ref = AtomProfile(alpha), shared_reference(alpha)
        for k in range(1, 13):
            for delta in (prof.diameter(k), prof.cylinder_diameter(k)):
                got = AtomProfile(alpha).depth_for(delta)
                assert got == prof.depth_for(delta) == ref.depth_for(delta)
                if delta <= Fraction(1, 2):
                    assert got > k

    def test_other_field_delta_raises(self):
        prof = AtomProfile(SQRT3_8)
        for delta in (QuadSurd(0, Fraction(1, 9), 2), QuadSurd(Fraction(1, 3), 1, 5)):
            with pytest.raises(MixedFieldError):
                prof.depth_for(delta)


class TestAtomProfileState:
    DELTAS = [Fraction(1, n) for n in (3, 9, 27, 81, 200, 243, 500)]

    def test_depth_for_independent_of_history(self):
        fresh = [AtomProfile(SQRT3_8).depth_for(d) for d in self.DELTAS]
        for order in (self.DELTAS, self.DELTAS[::-1]):
            prof = AtomProfile(SQRT3_8)
            prof.diameter(max(fresh) + 20)
            got = {d: prof.depth_for(d) for d in order}
            assert [got[d] for d in self.DELTAS] == fresh
        assert fresh == sorted(fresh)

    def test_rejects_depth_zero(self):
        prof = AtomProfile(SQRT3_8)
        with pytest.raises(ValueError):
            prof.diameter(0)
        with pytest.raises(ValueError):
            prof.cylinder_diameter(0)

    @pytest.mark.parametrize(
        "alpha", [Fraction(1, 3), QuadSurd(Fraction(5, 4)), QuadSurd(0, 2, 4), "x"]
    )
    def test_rejects_rational_or_non_numeric_angle(self, alpha):
        with pytest.raises(ValueError):
            AtomProfile(alpha)
