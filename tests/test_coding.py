"""Rotation codings, word machinery, and refinement atoms."""

from bisect import insort
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from gehman.chaoscan import certified_b_distality
from gehman.coding import (
    AtomProfile,
    CutPointCollision,
    _packed_windows,
    PeriodicStream,
    RotationCoding,
    WordStream,
    atom_diameter,
    atom_profile,
    dist,
    factor_count_profile,
    factors,
    itinerary,
    lcp,
    recurrent_factors,
    shift,
    sturmian_A,
    sturmian_stream,
)
from gehman.exactnum import QuadSurd, circle_distance, mod1
from gehman.family import FamilyConfig

SQRT2_4 = QuadSurd(0, Fraction(1, 4), 2)
SQRT3_8 = QuadSurd(0, Fraction(1, 8), 3)


class TestRotationCoding:
    def test_sturmian_frozen_prefix(self):
        assert sturmian_A(SQRT2_4, 5) == "10110"

    def test_against_interval_oracle(self):
        got = sturmian_A(SQRT2_4, 400)
        want = oracle.oracle_sturmian_A(Fraction(0), Fraction(1, 4), 2, 400)
        assert got == want

    def test_generic_start_against_oracle(self):
        rc = RotationCoding(Fraction(1, 3), SQRT3_8)
        want = oracle.oracle_orbit_word(
            Fraction(1, 3), Fraction(0), Fraction(0), Fraction(1, 8), 3, 300
        )
        assert itinerary(rc, 300) == want

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

    @pytest.mark.parametrize("n", [1, 2, 63, 64])
    @given(word=st.text(alphabet="01", max_size=150))
    def test_packed_windows_against_int(self, n, word):
        arr = np.frombuffer(word.encode(), dtype=np.uint8) - ord("0")
        packed = _packed_windows(arr, n)
        assert packed.dtype == np.uint64
        want = [int(word[i:i + n], 2) for i in range(len(word) - n + 1)]
        assert [int(v) for v in packed] == want  # empty when len < n

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

    def test_recurrent_periodic(self):
        assert recurrent_factors(PeriodicStream("01"), 2, 1000) == {"01", "10"}

    def test_count_profile_bound(self):
        profile = factor_count_profile(sturmian_A(SQRT2_4, 10_000), 12, 10_000)
        assert len(profile) == 12
        assert all(p <= 2 * n for n, p in enumerate(profile, start=1))


class TestAtoms:
    def test_depth_one_gap(self):
        assert atom_diameter(SQRT3_8, 1) == QuadSurd(Fraction(3, 4))

    def test_gap_nonincreasing(self):
        prof = atom_profile(SQRT3_8)
        diams = [prof.diameter(k) for k in range(1, 40)]
        assert all(b <= a for a, b in zip(diams, diams[1:]))

    def test_depth_32_below_ninth(self):
        assert atom_diameter(SQRT3_8, 32) < QuadSurd(Fraction(1, 9))

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
        with pytest.raises(ValueError):
            prof.depth_for(0)
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
