"""Angle family, base points, interleaved points, and the closure classifier."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from gehman.coding import atom_profile, factors, lcp, shift
from gehman.exactnum import QuadSurd, circle_distance
from gehman.diamond import crossover_split
from gehman.family import (
    DEFAULT_CODES,
    DEFAULT_CONFIG,
    MAX_CODE_LEN,
    AlphaCode,
    FamilyConfig,
    a_stream,
    alpha_of,
    b_stream,
    language_of_X,
    r_of,
    x_stream,
)

SQRT2_8 = QuadSurd(0, Fraction(1, 8), 2)

any_codes = st.text("01", min_size=1, max_size=8)


def distinct_same_length_pairs():
    def build(n, i, j):
        fmt = f"0{n}b"
        return format(i, fmt), format(j, fmt)

    return st.integers(2, 8).flatmap(
        lambda n: st.tuples(
            st.integers(0, 2**n - 1), st.integers(0, 2**n - 1)
        ).filter(lambda ij: ij[0] != ij[1]).map(lambda ij: build(n, *ij))
    )


class TestParameters:
    def test_alpha_frozen_values(self):
        assert alpha_of("0") == SQRT2_8
        assert alpha_of("1") == SQRT2_8 + Fraction(1, 16)
        assert alpha_of("10") < alpha_of("11")
        assert alpha_of("11") < Fraction(1, 2)

    def test_r_frozen_values(self):
        assert r_of("0") == Fraction(1, 8)
        assert r_of("1") == Fraction(17, 72)
        assert r_of("01") == Fraction(1, 8) + Fraction(1, 27)

    def test_trailing_zero_aliasing(self):
        assert alpha_of("1") == alpha_of("10")
        assert r_of("1") == r_of("10")

    @given(any_codes)
    def test_alpha_range_and_irrationality(self, s):
        a = alpha_of(s)
        assert a.d == 2 and a.b != 0
        assert Fraction(0) < a < Fraction(2602, 10000)

    @given(any_codes)
    def test_r_range_and_cut_avoidance(self, s):
        r = r_of(s)
        assert Fraction(0) < r < Fraction(1, 2)
        assert r != Fraction(1, 4)
        # Denominator is 8 times a power of 3.
        den = r.denominator
        while den % 3 == 0:
            den //= 3
        assert den in (1, 2, 4, 8)

    @given(distinct_same_length_pairs())
    def test_same_length_injectivity(self, pair):
        s, t = pair
        assert alpha_of(s) != alpha_of(t)
        assert r_of(s) != r_of(t)

    def test_code_validation(self):
        assert MAX_CODE_LEN == 20
        with pytest.raises(ValueError):
            AlphaCode("")
        with pytest.raises(ValueError):
            AlphaCode("0" * 21)
        with pytest.raises(ValueError):
            AlphaCode("012")
        assert alpha_of(AlphaCode("01")) == alpha_of("01")

    def test_default_codes(self):
        assert DEFAULT_CODES == ("000", "001", "010", "011", "100", "101", "110", "111")

    def test_beta_field_differs_from_alpha_field(self):
        assert DEFAULT_CONFIG.beta.d == 3
        assert alpha_of("0").d == 2

    @pytest.mark.parametrize("weight", [1, 2])
    def test_alpha_weight_below_three_rejected(self, weight):
        # weight 1 would give alpha_01 = alpha_10 = 1 + sqrt(2)/8
        with pytest.raises(ValueError, match="alpha_weight must be at least 3"):
            FamilyConfig(alpha_weight=weight)

    def test_r_weight_below_three_rejected(self):
        # weight 2 would put r_01 = 1/8 + 1/8 on the cut 1/4
        with pytest.raises(ValueError, match="r_weight must be at least 3"):
            FamilyConfig(r_weight=2)

    def test_rational_alpha_base_rejected(self):
        with pytest.raises(ValueError, match="alpha_base must be an irrational QuadSurd"):
            FamilyConfig(alpha_base=QuadSurd(Fraction(1, 8)))

    @pytest.mark.parametrize("beta", [QuadSurd(Fraction(1, 3)), QuadSurd(0, 1, 4), Fraction(1, 3)])
    def test_rational_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="beta must be an irrational QuadSurd"):
            FamilyConfig(beta=beta)

    def test_configs_in_use_accepted(self):
        # the non-default configs that the suites build
        other_alpha = QuadSurd(0, Fraction(1, 5), 2)
        FamilyConfig(alpha_base=other_alpha)
        FamilyConfig(alpha_base=other_alpha, beta=QuadSurd(0, Fraction(1, 7), 3))
        FamilyConfig(alpha_weight=3, r_weight=3)


class TestStreams:
    def test_frozen_prefixes_and_labels(self):
        assert a_stream("000").word(4) == "1111"
        assert b_stream("000").word(3) == "011"
        assert x_stream("000").word(12) == "101101111011"
        assert a_stream("000").label == "a:000"
        assert b_stream("000").label == "b:000"
        assert x_stream("000").label == "x:000"

    def test_streams_cached(self):
        assert a_stream("011") is a_stream("011")
        assert x_stream("011") is x_stream("011")

    def test_memo_key_is_kind_code_and_config(self):
        assert a_stream("000") is a_stream(AlphaCode("000"))
        assert a_stream("000") is a_stream("000", DEFAULT_CONFIG)
        assert a_stream("000") is a_stream("000", FamilyConfig())
        other = FamilyConfig(alpha_base=QuadSurd(0, Fraction(1, 5), 2))
        assert a_stream("000", other) is not a_stream("000")
        assert a_stream("000", other).word(40) != a_stream("000").word(40)
        assert b_stream("000") is not a_stream("000")

    def test_x_stream_interleaves_the_shared_sources(self):
        for code in ("011", AlphaCode("101")):
            assert x_stream(code).first is a_stream(code)
            assert x_stream(code).second is b_stream(code)

    @pytest.mark.parametrize("code", ["000", "101", "110"])
    def test_a_stream_against_oracle(self, code):
        assert a_stream(code).word(200) == oracle.oracle_a_word(code, 200)

    @pytest.mark.parametrize("code", ["000", "011", "111"])
    def test_b_stream_against_oracle(self, code):
        assert b_stream(code).word(200) == oracle.oracle_b_word(code, 200)

    def test_a_streams_separate_within_horizon(self):
        streams = [a_stream(s) for s in DEFAULT_CODES]
        for i in range(len(streams)):
            for j in range(i + 1, len(streams)):
                assert lcp(streams[i], streams[j], 10_000) < 10_000

    @pytest.mark.parametrize("s,t", [("000", "111"), ("010", "011")])
    def test_b_streams_separate_at_certified_depth(self, s, t):
        delta = circle_distance(r_of(s), r_of(t))
        k = atom_profile(DEFAULT_CONFIG.beta).depth_for(delta)
        assert lcp(b_stream(s), b_stream(t), k + 5) < k


class TestLanguage:
    def test_single_code_length_one(self):
        assert language_of_X(["000"], 1, 100) == {"0", "1"}

    def test_monotone_in_codes_and_horizon(self):
        small = language_of_X(["000"], 6, 2000)
        union = language_of_X(["000", "111"], 6, 2000)
        assert small <= union
        assert language_of_X(["000"], 6, 500) <= small

    def test_rejects_empty_code_set(self):
        with pytest.raises(ValueError):
            language_of_X([], 4, 100)

    def test_matches_factor_union(self):
        codes = ["001", "110"]
        want = factors(x_stream("001"), 5, 3000) | factors(x_stream("110"), 5, 3000)
        assert language_of_X(codes, 5, 3000) == want


def closure_case(w, code, horizon=10_000, config=DEFAULT_CONFIG):
    return crossover_split(w, a_stream(code, config), b_stream(code, config), horizon)


class TestClosureClassifier:
    def test_a_factor_is_s_side(self):
        w = a_stream("000").word(12)
        assert w == "111100111100"
        assert closure_case(w, "000") == "a-side"

    def test_b_factor_is_z_side(self):
        w = b_stream("000").word(12)
        assert w == "011110111011"
        assert w not in factors(a_stream("000"), 12, 10_000)
        assert closure_case(w, "000") == "b-side"

    def test_block_boundary_crossovers(self):
        # Block 100 of x_000 occupies positions 9901..10100, switching
        # from the a-source to the b-source after position 10000.
        x = x_stream("000")
        w_ab = shift(x, 9990).word(18)
        assert w_ab == "011110111101111011"
        assert closure_case(w_ab, "000") == "crossover-ab"
        w_ba = shift(x, 10094).word(10)
        assert w_ba == "1110111111"
        assert closure_case(w_ba, "000") == "crossover-ba"

    @pytest.mark.parametrize(
        "w", ["10101010101010101010", "1" * 20, "0" * 20]
    )
    def test_negative_controls(self, w):
        assert closure_case(w, "000") is None

    def test_factor_tables_keyed_on_config(self):
        # The same code under another config has other factor tables; a
        # default-config call must not answer for it, nor it for later
        # default-config calls.
        cfg = FamilyConfig(
            alpha_base=QuadSurd(0, Fraction(1, 5), 2),
            beta=QuadSurd(0, Fraction(1, 7), 3),
        )
        w = a_stream("000", cfg).word(5000)[1234:1246]
        assert closure_case(w, "000") == "crossover-ba"
        assert closure_case(w, "000", config=cfg) == "a-side"
        assert closure_case(w, "000") == "crossover-ba"

    def test_rejects_bad_word(self):
        for w in ("", "012"):
            with pytest.raises(ValueError, match="w must be a nonempty 0/1 word"):
                closure_case(w, "000")

    def test_recurrent_words_all_classified(self):
        # Quick version of the tail scan: recurrent words live past the
        # startup blocks, span at most one source seam, and must never
        # fall through to None.
        from gehman.coding import recurrent_factors

        for code in ("000", "110"):
            words = recurrent_factors(x_stream(code), 8, 60_000, 2_000, 5)
            assert words
            for w in sorted(words):
                assert closure_case(w, code, horizon=10_000) is not None

    def test_startup_words_can_span_multiple_seams(self):
        # Position 30 of x_000 reads b5 a1..a6 b1: three source segments,
        # which no single-seam case can explain. Only recurrent (tail)
        # words are promised a classification.
        w = shift(x_stream("000"), 29).word(8)
        assert w == "11111000"
        assert closure_case(w, "000", horizon=100_000) is None
