"""Diamond interleaving: layout arithmetic and omega-limit inclusion checks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gehman.coding import PeriodicStream, WordStream, lcp, shift
from gehman.diamond import (
    DiamondStream,
    block_start,
    crossover_split,
    omega_lower_check,
    omega_upper_check,
    position_decode,
)
from gehman.family import a_stream, b_stream, x_stream


def brute_layout(a_word: str, b_word: str, blocks: int) -> str:
    chunks = []
    for k in range(1, blocks + 1):
        chunks.append(a_word[:k])
        chunks.append(b_word[:k])
    return "".join(chunks)


class TestLayout:
    def test_constant_sources(self):
        x = DiamondStream(PeriodicStream("0"), PeriodicStream("1"))
        assert x.word(12) == "010011000111"

    def test_equal_sources(self):
        a = PeriodicStream("01")
        # a1 a1 | a1 a2 a1 a2
        assert DiamondStream(a, a).word(6) == "000101"

    def test_short_source_words(self):
        x = DiamondStream(WordStream("0110"), WordStream("011"))
        assert x.word(12) == "000101011011"

    def test_family_prefix(self):
        assert x_stream("000").word(12) == "101101111011"

    def test_label(self):
        x = DiamondStream(PeriodicStream("0"), PeriodicStream("1"))
        assert x.label == "diamond(per:0,per:1)"

    @given(
        st.text("01", min_size=1, max_size=6),
        st.text("01", min_size=1, max_size=6),
        st.integers(1, 8),
    )
    def test_layout_matches_brute(self, wa, wb, blocks):
        a, b = PeriodicStream(wa), PeriodicStream(wb)
        n = blocks * (blocks + 1)
        assert DiamondStream(a, b).word(n) == brute_layout(a.word(blocks), b.word(blocks), blocks)


class TestDecode:
    def test_frozen_positions(self):
        assert position_decode(1) == ("A", 1, 1)
        assert position_decode(7) == ("A", 3, 1)
        assert position_decode(12) == ("B", 3, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            position_decode(0)
        with pytest.raises(ValueError):
            block_start(0)

    def test_agrees_with_brute_construction(self):
        limit = 10_000
        tags = []
        k = 0
        while len(tags) < limit:
            k += 1
            tags.extend(("A", k, j) for j in range(1, k + 1))
            tags.extend(("B", k, j) for j in range(1, k + 1))
        for i in range(1, limit + 1):
            assert tuple(position_decode(i)) == tags[i - 1]

    @given(st.integers(1, 500))
    def test_block_boundaries(self, k):
        assert block_start(k) == k * (k - 1)
        assert position_decode(block_start(k) + 1) == ("A", k, 1)
        assert position_decode(k * k) == ("A", k, k)
        assert position_decode(k * k + 1) == ("B", k, 1)
        assert position_decode(k * (k + 1)) == ("B", k, k)

    @given(st.integers(1, 2000))
    def test_symbol_random_access(self, i):
        x = DiamondStream(PeriodicStream("0110"), PeriodicStream("010"))
        assert str(x.symbol(i)) == x.word(i)[-1]


class TestProximalitySeed:
    @pytest.mark.parametrize("k", [5, 12, 30])
    def test_block_lcp_against_family_source(self, k):
        a = a_stream("000")
        x = DiamondStream(a, b_stream("000"))
        assert lcp(shift(x, block_start(k)), a, k) == k

    @given(st.integers(1, 40))
    def test_block_lcp_generic_sources(self, k):
        a, b = PeriodicStream("0110"), PeriodicStream("10")
        assert lcp(shift(DiamondStream(a, b), block_start(k)), a, k) == k


class TestOmegaChecks:
    def test_lower_constant_sources(self):
        rep = omega_lower_check(PeriodicStream("0"), PeriodicStream("1"), 3, 2000)
        assert rep.status == "pass"
        assert rep.passed
        assert rep.violations == []
        assert rep.params["tail_start"] == 20

    def test_lower_insufficient_horizon(self):
        rep = omega_lower_check(
            PeriodicStream("0"), PeriodicStream("1"), 30, 100, tail_start=95
        )
        assert rep.status == "insufficient horizon"
        assert not rep.passed

    def test_lower_detects_missing_words(self):
        # An unreachable recurrence threshold turns every wanted word
        # into a violation; the report must list them all, sorted.
        rep = omega_lower_check(
            PeriodicStream("01"), PeriodicStream("0"), 4, 2000, min_count=10**9
        )
        assert rep.status == "fail"
        assert rep.violations == ["0000", "0101", "1010"]

    def test_upper_constant_sources(self):
        rep = omega_upper_check(PeriodicStream("0"), PeriodicStream("1"), 4, 2000)
        assert rep.passed
        assert set(rep.case_counts) == {
            "a-side",
            "b-side",
            "crossover-ab",
            "crossover-ba",
        }
        assert rep.case_counts["a-side"] >= 1
        assert rep.case_counts["b-side"] >= 1

    def test_upper_insufficient_source_horizon(self):
        rep = omega_upper_check(
            PeriodicStream("0"), PeriodicStream("1"), 30, 2000, source_horizon=10
        )
        assert rep.status == "insufficient horizon"

    def test_upper_negative_control(self):
        rep = omega_upper_check(
            PeriodicStream("0"),
            PeriodicStream("1"),
            4,
            2000,
            subject=PeriodicStream("0110100110010110"),
        )
        assert rep.status == "fail"
        assert "0100" in rep.violations

    # Frozen from the byte-compare classifier; `gehman diamond CODE
    # --factor-len 20` prints these in its "cases:" line.
    @pytest.mark.parametrize(
        "code, counts",
        [
            ("000", (40, 40, 287, 256)),
            ("001", (40, 40, 332, 261)),
            ("010", (40, 40, 317, 237)),
            ("011", (40, 40, 298, 219)),
            ("100", (40, 40, 262, 205)),
            ("101", (40, 40, 278, 189)),
            ("110", (21, 40, 144, 207)),
            ("111", (40, 40, 249, 208)),
        ],
    )
    def test_default_code_case_counts(self, code, counts):
        rep = omega_upper_check(
            a_stream(code), b_stream(code), 20, 1_000_000,
            source_horizon=10_000, subject=x_stream(code),
        )
        assert rep.passed
        names = ("a-side", "b-side", "crossover-ab", "crossover-ba")
        assert rep.case_counts == dict(zip(names, counts))

    def test_crossover_split_cases(self):
        a, b = PeriodicStream("0"), PeriodicStream("1")
        assert crossover_split("0000", a, b, 100) == "a-side"
        assert crossover_split("1111", a, b, 100) == "b-side"
        assert crossover_split("0011", a, b, 100) == "crossover-ab"
        assert crossover_split("1100", a, b, 100) == "crossover-ba"
        assert crossover_split("0101", a, b, 100) is None
