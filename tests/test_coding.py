"""Rotation codings, word machinery, and refinement atoms."""

import random
from bisect import insort
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from gehman.chaoscan import certified_b_distality, omega_scrambled_check
from gehman.coding import (
    AtomProfile,
    CutPointCollision,
    _packed_windows,
    PeriodicStream,
    RotationCoding,
    WordStream,
    atom_profile,
    dist,
    factor_count_profile,
    factors,
    lcp,
    recurrent_factors,
    shift,
    sturmian_stream,
)
from gehman.exactnum import QuadSurd, circle_distance, mod1
from gehman.dendrite import family_model, no_isolated_points_check
from gehman.diamond import diamond
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
            diamond(RotationCoding(Fraction(1, 3), SQRT3_8), sturmian_stream(SQRT2_4)),
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
        d = diamond(a_stream("0110"), b_stream("0110"))
        for i in range(1, 131):
            assert d.symbol(i) == d.array(i)[i - 1]
        assert d.word(130) == x_stream("0110").word(130)


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
        word = sturmian_stream(SQRT2_4).word(10_000)
        profile = factor_count_profile(word, 12, 10_000)
        assert len(profile) == 12
        assert all(p <= 2 * n for n, p in enumerate(profile, start=1))


def counted_words(word: str, n: int, start: int = 0, min_count: int = 1) -> set[str]:
    """Length-n words of word[start:] seen at least min_count times."""
    counts = Counter(word[i:i + n] for i in range(start, len(word) - n + 1))
    return {w for w, c in counts.items() if c >= min_count}


@pytest.fixture
def pack_calls(monkeypatch):
    """Lengths passed to _packed_windows while the test runs."""
    calls = []

    def counted(arr, n):
        calls.append(n)
        return _packed_windows(arr, n)

    monkeypatch.setattr("gehman.coding._packed_windows", counted)
    return calls


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
    def test_length_orders(self, order, pack_calls):
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
        assert pack_calls == [n for n in builds for _ in range(2)]

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

    def test_omega_packs_each_stream_once(self, pack_calls):
        # a horizon no other test uses, so every spectrum is built here
        rep = omega_scrambled_check(
            "0011", "1001", range(5, 21), horizon=200_003, z_horizon=9_001
        )
        assert [r.n for r in rep.rows] == list(range(5, 21))
        # x_0011, x_1001, then b_0011, b_1001, each at n = 20
        assert pack_calls == [20, 20, 20, 20]

    def test_dendrite_check_lengths_shortest_first(self, pack_calls):
        # The oracle asks lengths 1..15 in order; each x-stream repacks
        # only at 1, 2, 4, 8 and 16.  A horizon no other test uses.
        model = family_model(["0101", "1110"], horizon=7_003)
        rep = no_isolated_points_check(model, 5, 10)
        assert rep.accepted_count > 0
        assert pack_calls == [n for n in (1, 2, 4, 8, 16) for _ in range(2)]


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
