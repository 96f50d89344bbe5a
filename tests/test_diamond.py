"""Diamond interleaving: layout arithmetic and omega-limit inclusion checks."""

from collections import Counter
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gehman.coding import PeriodicStream, WordStream, factors, lcp, recurrent_factors, shift
from gehman.diamond import (
    DiamondStream,
    _closure_table,
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
        st.lists(st.integers(0, 72), max_size=6),
    )
    def test_layout_matches_brute(self, wa, wb, blocks, requests):
        # the stream first grows by the drawn requests, which end inside
        # blocks, on block edges, or short of the buffer
        a, b = PeriodicStream(wa), PeriodicStream(wb)
        n = blocks * (blocks + 1)
        x = DiamondStream(a, b)
        for r in requests:
            x.word(r)
        assert x.word(n) == brute_layout(a.word(blocks), b.word(blocks), blocks)


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

    @pytest.mark.parametrize("horizon", [2000, 50_000, 1_000_000])
    def test_checks_share_one_window(self, horizon):
        a, b = a_stream("000"), b_stream("000")
        lower = omega_lower_check(a, b, 5, horizon)
        upper = omega_upper_check(a, b, 5, horizon)
        assert lower.params == upper.params == {
            "n": 5, "horizon": horizon, "tail_start": horizon // 100,
            "min_count": 5, "source_horizon": 10_000,
        }

    @pytest.mark.parametrize(
        "n, horizon, tail_start, source_horizon",
        [(30, 100, 95, 10_000), (30, 2000, None, 10), (5, 4, None, 10_000)],
    )
    def test_checks_are_short_together(self, n, horizon, tail_start, source_horizon):
        a, b = PeriodicStream("0"), PeriodicStream("1")
        reports = [
            check(a, b, n, horizon, tail_start=tail_start, source_horizon=source_horizon)
            for check in (omega_lower_check, omega_upper_check)
        ]
        assert [r.status for r in reports] == ["insufficient horizon"] * 2
        assert reports[0].params == reports[1].params

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


def reference_tables(x, n, horizon):
    """Factor sets of x at lengths n..1, one per length."""
    return {m: factors(x, m, horizon) for m in range(n, 0, -1)}


def reference_closure_case(w, a_tables, b_tables, a_word, b_word):
    """The closure case of w by slicing it at every split point.

    The classifier the closure table replaced, kept as its reference.
    """
    n = len(w)
    if w in a_tables[n]:
        return "a-side"
    if w in b_tables[n]:
        return "b-side"
    for cut in range(1, n):
        u, v = w[:cut], w[cut:]
        if u in a_tables[cut] and b_word.startswith(v):
            return "crossover-ab"
        if u in b_tables[cut] and a_word.startswith(v):
            return "crossover-ba"
    return None


codes = st.text("01", min_size=1, max_size=6)
sources = st.one_of(
    st.builds(PeriodicStream, st.text("01", min_size=1, max_size=8)),
    st.builds(a_stream, codes),
    st.builds(b_stream, codes),
)


class TestClosureTable:
    @given(sources, sources, st.integers(1, 10), st.data())
    def test_matches_reference_classifier(self, a, b, n, data):
        horizon = data.draw(st.integers(n, 300))
        table = _closure_table(a, b, n, horizon)
        tables = reference_tables(a, n, horizon), reference_tables(b, n, horizon)
        want = {}
        for w in map("".join, product("01", repeat=n)):
            case = reference_closure_case(w, *tables, a.word(n), b.word(n))
            if case is not None:
                want[w] = case
        assert table == want

    def test_earlier_split_wins(self):
        # 10001 is crossover-ba at split 2 (10 | 001) and crossover-ab at
        # split 3 (100 | 01); the earlier split point decides.
        a, b = PeriodicStream("001"), PeriodicStream("0111")
        assert "10001" not in factors(a, 5, 100) | factors(b, 5, 100)
        assert "100" in factors(a, 3, 100) and b.word(2) == "01"
        assert "10" in factors(b, 2, 100) and a.word(3) == "001"
        assert crossover_split("10001", a, b, 100) == "crossover-ba"

    def test_split_agrees_with_upper_case_counts(self):
        a, b, x = a_stream("110"), b_stream("110"), x_stream("110")
        rep = omega_upper_check(a, b, 12, 1_000_000, source_horizon=10_000, subject=x)
        words = recurrent_factors(x, 12, 1_000_000, 10_000, 5)
        cases = Counter(crossover_split(w, a, b, 10_000) for w in words)
        assert cases.pop(None, 0) == len(rep.violations)
        assert cases == Counter(rep.case_counts)
