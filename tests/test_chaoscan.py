"""Pair classification, scrambled-set scans, certificates, limit checks."""

import functools
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gehman import chaoscan, coding, family
from gehman.chaoscan import (
    VERDICT_ASYMPTOTIC,
    VERDICT_DISTAL,
    VERDICT_LY,
    DistalityCertificate,
    SturmianPairRecord,
    SturmianReport,
    certified_b_distality,
    classify_pair,
    contained_in_short_periodic,
    lcp_series,
    nested_limit_codes,
    omega_scrambled_check,
    sclosed_limit_check,
    scrambled_scan,
    sturmian_no_LY_check,
    verdict_record,
)
from gehman.cli import main
from gehman.coding import (
    PeriodicStream,
    SymbolStream,
    WordStream,
    _bits_for,
    lcp,
    shift,
    sturmian_stream,
)
from gehman.exactnum import QuadSurd
from gehman.family import a_stream, b_stream, x_stream

SQRT2_4 = QuadSurd(0, Fraction(1, 4), 2)


def reference_lcp_series(x, y, N, cap):
    """lcp_series by its former compare, kept as a reference.

    One compare over N + cap symbols; ends lists the mismatches, then
    N + cap, and repeating each over the shifts up to it gives the first
    mismatch at or after every shift.
    """
    if N < 0 or cap < 1:
        raise ValueError("need N >= 0 and cap >= 1")
    length = N + cap
    ax = _bits_for(x, length)
    ay = _bits_for(y, length)
    if min(ax.shape[0], ay.shape[0]) < length:
        raise ValueError(f"input too short: fewer than {length} symbols")
    mism = np.flatnonzero(ax != ay)
    ends = np.append(mism, length).astype(np.int64, copy=False)
    nxt = np.repeat(ends, np.diff(ends, prepend=-1))[:N + 1]
    nxt -= np.arange(N + 1, dtype=np.int64)
    return np.minimum(nxt, cap, out=nxt)


class TestLcpSeries:
    @given(
        st.text("01", min_size=1, max_size=5),
        st.text("01", min_size=1, max_size=5),
        st.integers(0, 40),
        st.integers(1, 12),
    )
    def test_matches_pointwise_lcp(self, wx, wy, N, cap):
        x, y = PeriodicStream(wx), PeriodicStream(wy)
        series = lcp_series(x, y, N, cap)
        assert series.shape == (N + 1,)
        for n in range(N + 1):
            assert series[n] == lcp(shift(x, n), shift(y, n), cap)

    @given(st.data())
    def test_raw_arrays_match_per_shift_lcp(self, data):
        # Raw arrays are the path sturmian_no_LY_check takes; N and cap
        # are drawn so that N + cap reaches (or nearly reaches) the end.
        size = data.draw(st.integers(1, 300))
        wx = data.draw(st.text("01", min_size=size, max_size=size))
        flips = data.draw(st.sets(st.integers(0, size - 1), max_size=6))
        wy = "".join(
            "10"[int(c)] if i in flips else c for i, c in enumerate(wx)
        )
        N = data.draw(st.integers(0, size - 1))
        cap = data.draw(st.integers(max(1, size - N - 2), size - N))
        ax = np.frombuffer(wx.encode(), dtype=np.uint8) - ord("0")
        ay = np.frombuffer(wy.encode(), dtype=np.uint8) - ord("0")
        series = lcp_series(ax, ay, N, cap)
        assert series.dtype == np.int64
        assert series.shape == (N + 1,)
        want = [lcp(wx[n:n + cap], wy[n:n + cap], cap) for n in range(N + 1)]
        assert series.tolist() == want

    @pytest.mark.parametrize("N,cap", [(0, 1), (0, 9), (7, 1), (250, 31)])
    def test_raw_arrays_no_mismatch_and_last_only(self, N, cap):
        length = N + cap
        ax = np.zeros(length, dtype=np.uint8)
        same = lcp_series(ax, ax.copy(), N, cap)
        assert same.dtype == np.int64
        assert same.tolist() == [cap] * (N + 1)
        ay = ax.copy()
        ay[-1] = 1
        last = lcp_series(ax, ay, N, cap)
        assert last.dtype == np.int64
        assert last.tolist() == [min(length - 1 - n, cap) for n in range(N + 1)]

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            lcp_series(PeriodicStream("0"), PeriodicStream("1"), -1, 5)
        with pytest.raises(ValueError):
            lcp_series(PeriodicStream("0"), PeriodicStream("1"), 5, 0)
        with pytest.raises(ValueError, match="^input too short: fewer than 12 symbols$"):
            lcp_series(np.zeros(11, np.uint8), np.zeros(12, np.uint8), 8, 4)


def first_low_by_series(ax, ay, N, cap, c):
    """First n in [c, N] whose reference lcp at cap is <= 2, or None."""
    if c > N:
        return None
    low = np.flatnonzero(reference_lcp_series(ax, ay, N, cap)[c:] <= 2)
    return c + int(low[0]) if low.size else None


class TestFirstLow:
    """_LcpRuns.first_low against a scan of the reference lcp series."""

    @settings(max_examples=200)
    @given(st.data())
    def test_sparse_mismatches(self, data):
        # few mismatches, so agreement runs span many words
        N = data.draw(st.integers(0, 5000))
        cap = data.draw(st.integers(1, 9))
        length = N + cap
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        ax = rng.integers(0, 2, length, dtype=np.uint8)
        ay = ax.copy()
        flips = data.draw(st.sets(st.integers(0, length - 1), max_size=6))
        ay[list(flips)] ^= 1
        edges = st.integers(0, N // 64 + 1).flatmap(
            lambda k: st.integers(max(0, 64 * k - 2), 64 * k + 1))
        cs = data.draw(st.lists(st.one_of(st.integers(0, N + 70), edges), max_size=12))
        got = chaoscan._LcpRuns(ax, ay, N, cap).first_low(cs, cap)
        assert got == [first_low_by_series(ax, ay, N, cap, c) for c in cs]

    @pytest.mark.parametrize("e", [None, 0, 2, 63, 64, 65, 64 * 40 + 5,
                                   "N-2", "N", "N+2", "N+3"])
    @pytest.mark.parametrize("cap", [2, 3, 30])
    @pytest.mark.parametrize("N", [9_000, 64 * 140 - 2])
    def test_one_mismatch(self, N, e, cap):
        # one mismatch at e, or none: the shift found is max(c, e - 2)
        # while that is <= N, else None; at N = 64k - 2 the mismatch at
        # N + 2 is the first bit of a word
        if isinstance(e, str):
            e = N + int(e[1:] or 0)
        ax = np.zeros(N + cap, dtype=np.uint8)
        ay = ax.copy()
        if e is not None and e < N + cap:
            ay[e] = 1
        cs = [0, 1, 62, 63, 64, 65, 127, 128, 4_000, N - 1, N, N + 1, N + 64, 10**6]
        got = chaoscan._LcpRuns(ax, ay, N, cap).first_low(cs, cap)
        assert got == [first_low_by_series(ax, ay, N, cap, c) for c in cs]
        assert got[-3:] == [None] * 3


class TestClassifyPair:
    def test_family_pair_is_ly(self):
        pv = classify_pair(x_stream("000"), a_stream("000"), 10_000, 30)
        assert pv.verdict == VERDICT_LY
        # First A-block of length >= 30 opens at shift 30*29 = 870; the
        # first proximal hit lands deeper, on a later block boundary.
        assert pv.proximal_evidence == (1992, 31)
        assert pv.max_lcp == (31, 1992)
        assert [c for c, _ in pv.nonasymptotic_evidence] == [
            30 * 2**i for i in range(9)
        ]

    def test_exact_proximality_at_block_starts(self):
        x, a = x_stream("000"), a_stream("000")
        for k in (5, 17, 30):
            assert lcp(shift(x, k * (k - 1)), a, k) == k

    def test_identical_pair_is_asymptotic(self):
        pv = classify_pair(x_stream("000"), x_stream("000"), 1000, 10)
        assert pv.verdict == VERDICT_ASYMPTOTIC
        assert pv.proximal_evidence == (0, 11)
        assert pv.nonasymptotic_evidence is None

    def test_cross_source_pair_is_distal(self):
        pv = classify_pair(a_stream("000"), b_stream("000"), 10_000, 20)
        assert pv.verdict == VERDICT_DISTAL
        assert pv.certificate is None

    def test_certificate_drives_verdict_and_bound_check(self):
        cert = certified_b_distality("000", "111")
        pv = classify_pair(
            b_stream("000"), b_stream("111"), 10_000, 20, certificate=cert
        )
        assert pv.verdict == VERDICT_DISTAL
        bc = pv.bound_check
        assert bc["limit"] == cert.K == 8
        assert bc["subject_ok"] and bc["ok"]
        assert bc["subject_max_lcp"] < cert.K
        assert bc["subject_cap"] == cert.K + 1

    @pytest.mark.parametrize("m", [4, 20])
    def test_own_subject_scan_matches_separate_scans(self, m):
        # the pair scanned once at max(m+1, K+1) and clipped gives what
        # separate scans at m+1 and K+1 give (K = 8 lies between)
        cert = certified_b_distality("000", "111")
        ax, ay = b_stream("000").array(3000), b_stream("111").array(3000)
        own = replace(cert, subject_streams=(ax, ay))
        apart = replace(cert, subject_streams=(ax.copy(), ay.copy()))
        got = classify_pair(ax, ay, 2000, m, certificate=own)
        want = classify_pair(ax, ay, 2000, m, certificate=apart)
        assert verdict_record(got) == verdict_record(want)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            classify_pair(PeriodicStream("0"), PeriodicStream("1"), 0, 5)
        with pytest.raises(ValueError):
            classify_pair(PeriodicStream("0"), PeriodicStream("1"), 5, 0)


def _series_fields(ax, ay, N, m, K):
    """classify_pair's scan fields, read off the reference series."""
    series = reference_lcp_series(ax, ay, N, m + 1)
    hit = np.flatnonzero(series >= m)
    low = np.flatnonzero(series <= 2)
    nonasym = []
    c = m
    while c <= N:
        later = low[low >= c]
        if not later.size:
            nonasym = None
            break
        nonasym.append((c, int(later[0])))
        c *= 2
    sub = reference_lcp_series(ax, ay, N, K + 1)
    return {
        "max_lcp": (int(series.max()), int(np.argmax(series))),
        "proximal": (int(hit[0]), int(series[hit[0]])) if hit.size else None,
        # with no checkpoint (N < m) there is no evidence
        "nonasymptotic": nonasym or None,
        "subject": (int(sub.max()), int(np.argmax(sub))),
    }


def _check_against_series(ax, ay, N, m, K):
    want = _series_fields(ax, ay, N, m, K)
    cert = DistalityCertificate(
        K=K, delta=QuadSurd(Fraction(1, 3)), angle=SQRT2_4, subject="pair"
    )
    plain = classify_pair(ax, ay, N, m)
    own = classify_pair(
        ax, ay, N, m, certificate=replace(cert, subject_streams=(ax, ay))
    )
    apart = classify_pair(
        ax, ay, N, m, certificate=replace(cert, subject_streams=(ax.copy(), ay.copy()))
    )
    for pv in (plain, own, apart):
        got = {
            "max_lcp": pv.max_lcp,
            "proximal": pv.proximal_evidence,
            "nonasymptotic": pv.nonasymptotic_evidence,
        }
        assert got == {k: v for k, v in want.items() if k != "subject"}
    for pv in (own, apart):
        bc = pv.bound_check
        assert (bc["subject_max_lcp"], bc["subject_max_at"]) == want["subject"]
        assert bc["pair_max_lcp"] == want["max_lcp"][0]


def _bits(word):
    return np.array([int(c) for c in word], dtype=np.uint8)


class TestRunsAgainstSeries:
    """classify_pair's bit queries against reference_lcp_series."""

    # raw arrays exactly N + max(m+1, K+1) long, the own subject's compare;
    # N at and around a 64-symbol word, and caps whose windows shift by
    # 64 or more
    @pytest.mark.parametrize("N,m,K", [
        (1, 1, 1), (1, 1, 6), (1, 4, 2), (9, 1, 3), (40, 1, 1),
        (40, 3, 9), (40, 9, 3), (64, 5, 5), (200, 2, 30),
        (63, 5, 64), (64, 64, 65), (65, 2, 142), (128, 3, 65),
        (128, 65, 142), (63, 70, 142),
    ])
    @pytest.mark.parametrize(
        "pattern", ["equal", "complement", "last", "first", "alternate", "sparse"]
    )
    def test_edge_patterns(self, N, m, K, pattern):
        length = N + max(m, K) + 1
        ax = np.zeros(length, dtype=np.uint8)
        ay = ax.copy()
        if pattern == "complement":  # every position a mismatch
            ay[:] = 1
        elif pattern == "last":  # the only mismatch at N + cap - 1
            ay[-1] = 1
        elif pattern == "first":
            ay[0] = 1
        elif pattern == "alternate":
            ay[::2] = 1
        elif pattern == "sparse":  # runs of 96 agreements between mismatches
            ay[::97] = 1
        _check_against_series(ax, ay, N, m, K)

    @given(st.data())
    def test_random_pairs(self, data):
        N = data.draw(st.integers(1, 300))
        m = data.draw(st.integers(1, 12))
        K = data.draw(st.integers(1, 150))
        length = N + max(m, K) + 1
        wx = data.draw(st.text("01", min_size=length, max_size=length))
        kind = data.draw(st.sampled_from(["random", "flips", "periodic"]))
        if kind == "random":
            wy = data.draw(st.text("01", min_size=length, max_size=length))
        elif kind == "flips":
            flips = data.draw(st.sets(st.integers(0, length - 1), max_size=8))
            wy = "".join("10"[int(c)] if i in flips else c for i, c in enumerate(wx))
        else:
            period = data.draw(st.text("01", min_size=1, max_size=6))
            wy = (period * length)[:length]
        _check_against_series(_bits(wx), _bits(wy), N, m, K)

    @given(st.integers(1, 12), st.integers(1, 300), st.integers(1, 25))
    def test_sturmian_max_lcp_matches_each_pair(self, max_shift, N, m):
        rep = sturmian_no_LY_check(SQRT2_4, max_shift, N, m)
        assert [(r.i, r.j) for r in rep.pairs] == [
            (i, j) for i in range(max_shift + 1) for j in range(i + 1, max_shift + 1)
        ]
        k_max = max(r.K for r in rep.pairs)
        base = sturmian_stream(SQRT2_4).array(N + max_shift + k_max + 1)
        for r in rep.pairs:
            want = reference_lcp_series(base[r.i:], base[r.j:], N, r.K + 1).max()
            assert r.max_lcp == want
            assert r.ok == (want < r.K)
            assert r.verdict == VERDICT_DISTAL


@st.composite
def packed_pairs(draw, length):
    """Two inputs of at least ``length`` symbols: arrays, words of exactly
    that length, periodic streams, or shifts of long rotation codings
    whose packed words hold symbols past it."""
    kind = draw(st.sampled_from(["array", "word", "periodic", "rotation"]))
    if kind == "periodic":
        return tuple(PeriodicStream(draw(st.text("01", min_size=1, max_size=5)))
                     for _ in range(2))
    if kind == "rotation":
        base = sturmian_stream(SQRT2_4)
        far = a_stream(draw(st.sampled_from(["000", "101"])))
        p, q = (draw(st.integers(0, 3000)) for _ in range(2))
        return shift(base, p), shift(draw(st.sampled_from([base, far])), q)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    ax = rng.integers(0, 2, length, dtype=np.uint8)
    ay = ax.copy()
    flips = draw(st.sets(st.integers(0, length - 1), max_size=8))
    ay[list(flips)] ^= 1
    if draw(st.booleans()):
        ay = rng.integers(0, 2, length, dtype=np.uint8)
    if kind == "word":
        return WordStream(ax.tobytes()), WordStream(ay.tobytes())
    return ax, ay


def word_edge_lengths():
    """64k - 1, 64k and 64k + 1, for a few small k and for k = 1024."""
    k = st.one_of(st.integers(1, 20), st.just(1024))
    return st.tuples(k, st.sampled_from([-1, 0, 1])).map(lambda t: 64 * t[0] + t[1])


def brute_lcps(x, y, N, cap):
    """lcp at every shift 0..N: the first mismatch of each length-cap window."""
    neq = _bits_for(x, N + cap) != _bits_for(y, N + cap)
    win = np.lib.stride_tricks.sliding_window_view(neq, cap)[:N + 1]
    return np.where(win.any(axis=1), win.argmax(axis=1), cap)


class TestPackedCompare:
    """_LcpRuns on XORed packed words against a brute-force lcp scan."""

    @settings(max_examples=150)
    @given(st.data())
    def test_queries_against_brute_force(self, data):
        length = data.draw(word_edge_lengths())
        cap = data.draw(st.integers(1, min(length, 80)))
        N = length - cap
        x, y = data.draw(packed_pairs(length))
        want = brute_lcps(x, y, N, cap)
        assert lcp_series(x, y, N, cap).tolist() == want.tolist()
        runs = chaoscan._LcpRuns(x, y, N, cap)
        # a compare at cap answers every smaller cap too
        for c in {1, 2, 3, cap // 2, cap} & set(range(1, cap + 1)):
            series = np.minimum(want, c)
            top = int(series.max())
            assert runs.peak(c) == (top, int(series.argmax()))
            for v in range(1, c + 1):
                hit = np.flatnonzero(series >= v)
                got = runs.first_reaching(v, c)
                n = int(hit[0]) if hit.size else None
                assert got == (None if n is None else (n, int(series[n])))
        cs = data.draw(st.lists(st.integers(0, N + 70), max_size=8))
        assert runs.first_low(cs, cap) == [
            first_low_by_series(x, y, N, cap, c) for c in cs]

    @settings(max_examples=60)
    @given(st.data())
    def test_own_subject_with_a_larger_cap(self, data):
        # K + 1 > m + 1: the pair is compared once over N + K + 1
        # symbols, which lie at a word edge, and a later plain compare of
        # the same streams reads the longer packed words
        length = data.draw(word_edge_lengths())
        m = data.draw(st.integers(1, 20))
        K = data.draw(st.integers(m + 1, min(length - 1, 90)))
        N = length - K - 1
        x, y = data.draw(packed_pairs(length))
        want = _series_fields(x, y, N, m, K)
        cert = DistalityCertificate(
            K=K, delta=QuadSurd(Fraction(1, 3)), angle=SQRT2_4, subject="pair",
            subject_streams=(x, y),
        )
        own = classify_pair(x, y, N, m, certificate=cert)
        plain = classify_pair(x, y, N, m)
        for pv in (own, plain):
            assert (pv.max_lcp, pv.proximal_evidence, pv.nonasymptotic_evidence) == (
                want["max_lcp"], want["proximal"], want["nonasymptotic"])
        bc = own.bound_check
        assert (bc["subject_max_lcp"], bc["subject_max_at"]) == want["subject"]

    @pytest.mark.parametrize("bad", [2, 7, -1])
    def test_arrays_must_hold_zero_or_one(self, bad):
        # packing reads any nonzero value as 1, so a value that is not
        # 0 or 1 is refused rather than compared as 1
        ax = np.zeros(300, dtype=np.int16)
        ay = ax.copy()
        ay[150] = bad
        for x, y in ((ax, ay), (ay, ax)):
            with pytest.raises(ValueError, match="^symbols must be 0 or 1$"):
                chaoscan._LcpRuns(x, y, 200, 10)
            with pytest.raises(ValueError, match="^symbols must be 0 or 1$"):
                classify_pair(x, y, 200, 9)
        # only the compared prefix is read
        assert classify_pair(ax, ay, 100, 9).max_lcp == (10, 0)

    def test_scan_packs_each_stream_once(self, monkeypatch, capsys):
        # fresh family streams, so no earlier test has packed them; every
        # stream's packs start at the previous pack's last whole word, so
        # no symbol before it is packed twice
        fresh = functools.cache(family._family_stream.__wrapped__)
        monkeypatch.setattr(family, "_family_stream", fresh)
        packs: dict[str, list[tuple[int, int]]] = {}
        real = SymbolStream.packed
        pack = coding._pack
        owner: list[SymbolStream | None] = [None]

        def packed(self, n):
            owner[0] = self
            try:
                return real(self, n)
            finally:
                owner[0] = None

        def spy(bits, out):
            assert owner[0] is not None, "an array was packed"
            x = owner[0]
            packs.setdefault(x.label, []).append((x._npacked, len(bits)))
            return pack(bits, out)

        monkeypatch.setattr(SymbolStream, "packed", packed)
        monkeypatch.setattr(coding, "_pack", spy)
        codes = ["000", "011", "101"]
        assert main(["scan", "--include-limits", "--codes-inline", ",".join(codes)]) == 0
        assert '"points":9' in capsys.readouterr().out
        assert sorted(packs) == sorted(f"{k}:{c}" for k in "xab" for c in codes)
        for label, steps in packs.items():
            done = 0
            for before, size in steps:
                assert before == done
                done = 64 * (before // 64) + size
            stream = fresh(label[0], label[2:], family.DEFAULT_CONFIG)
            assert stream._npacked == done <= len(stream._buf)


class TestVerdictRecord:
    def test_key_order_plain(self):
        pv = classify_pair(a_stream("000"), b_stream("000"), 1000, 10)
        rec = verdict_record(pv)
        assert list(rec) == [
            "x",
            "y",
            "verdict",
            "N",
            "m",
            "proximal",
            "nonasymptotic",
            "certified_bound",
            "bound_check",
            "max_lcp",
        ][:5] + ["proximal", "nonasymptotic", "certified_bound", "max_lcp"]

    def test_key_order_certified(self):
        cert = certified_b_distality("000", "111")
        pv = classify_pair(
            b_stream("000"), b_stream("111"), 1000, 10, certificate=cert
        )
        rec = verdict_record(pv)
        assert list(rec) == [
            "x",
            "y",
            "verdict",
            "N",
            "m",
            "proximal",
            "nonasymptotic",
            "certified_bound",
            "bound_check",
            "max_lcp",
        ]
        assert rec["certified_bound"] == {"K": 8, "delta_num": 13, "delta_den": 81}
        assert rec["max_lcp"] == {"value": pv.max_lcp[0], "n": pv.max_lcp[1]}


class TestCertificates:
    def test_frozen_bounds(self):
        assert certified_b_distality("000", "001").K == 82
        assert certified_b_distality("000", "011").K == 15
        assert certified_b_distality("000", "111").K == 8
        assert certified_b_distality("000", "001").delta == Fraction(1, 81)

    def test_monotone_in_offset(self):
        pairs = [("000", "111"), ("000", "011"), ("000", "001")]
        deltas = [certified_b_distality(s, t).delta for s, t in pairs]
        ks = [certified_b_distality(s, t).K for s, t in pairs]
        assert deltas == sorted(deltas, reverse=True)
        assert ks == sorted(ks)

    def test_equal_shifts_preserve_offset(self):
        base = certified_b_distality("000", "111")
        moved = certified_b_distality("000", "111", p=3, q=3)
        assert moved.K == base.K
        assert moved.delta == base.delta

    def test_bound_is_a_theorem_on_subject(self):
        # Scan far beyond the certificate depth: the subject streams may
        # never agree for K symbols at any shift.
        cert = certified_b_distality("000", "111")
        u, v = cert.subject_streams
        series = lcp_series(u, v, 20_000, cert.K + 1)
        assert int(series.max()) < cert.K

    def test_rejects_identical_codes(self):
        with pytest.raises(ValueError):
            certified_b_distality("010", "010")
        with pytest.raises(ValueError):
            certified_b_distality("010", "011", p=-1)

    def test_rejects_aliasing_codes(self):
        # trailing zeros leave r_s unchanged: zero offset, no bound
        with pytest.raises(ValueError, match="010 and 0100 alias"):
            certified_b_distality("010", "0100")


def _counted_runs(monkeypatch):
    """Patch _LcpRuns to record (N, cap) of every compare."""
    calls = []

    class Counted(chaoscan._LcpRuns):
        def __init__(self, *args):
            calls.append(args[2:])
            super().__init__(*args)

    monkeypatch.setattr(chaoscan, "_LcpRuns", Counted)
    return calls


class TestSubjectMemo:
    def test_subject_compared_once_across_calls(self, monkeypatch):
        # an x-pair is not its certificate's subject (the b-pair is)
        cert = certified_b_distality("000", "111")
        x, y = x_stream("000"), x_stream("111")
        calls = _counted_runs(monkeypatch)
        first = classify_pair(x, y, 1000, 10, certificate=cert)
        second = classify_pair(x, y, 1000, 10, certificate=cert)
        assert calls == [(1000, 11), (1000, cert.K + 1), (1000, 11)]
        assert verdict_record(first) == verdict_record(second)

    def test_memo_is_keyed_by_horizon(self, monkeypatch):
        # the subject agrees on 16 symbols at shift 700 and nowhere else
        K, length = 20, 1100
        ax = np.zeros(length, dtype=np.uint8)
        ay = np.ones(length, dtype=np.uint8)
        ay[700:716] = 0
        cert = DistalityCertificate(
            K=K, delta=QuadSurd(Fraction(1, 3)), angle=SQRT2_4, subject="pair",
            subject_streams=(ax, ay),
        )
        pair = (ax.copy(), ay.copy())
        short = classify_pair(*pair, 500, 4, certificate=cert).bound_check
        calls = _counted_runs(monkeypatch)
        long = classify_pair(*pair, 1000, 4, certificate=cert).bound_check
        assert calls == [(1000, 5), (1000, K + 1)]
        assert (short["subject_max_lcp"], short["subject_max_at"]) == (0, 0)
        assert (long["subject_max_lcp"], long["subject_max_at"]) == (16, 700)
        fresh = replace(cert)
        assert classify_pair(*pair, 1000, 4, certificate=fresh).bound_check == long
        assert sorted(cert._subject_peaks) == [500, 1000]

    def test_certificate_is_frozen(self):
        cert = certified_b_distality("000", "111")
        with pytest.raises(FrozenInstanceError):
            cert.K = 9
        with pytest.raises(FrozenInstanceError):
            cert.subject_streams = None
        classify_pair(x_stream("000"), x_stream("111"), 100, 10, certificate=cert)
        # the kept subject result is no part of the value
        assert replace(cert) == cert
        assert "_subject_peaks" not in repr(cert)


class TestScrambledScan:
    def test_family_triple(self):
        rep = scrambled_scan(
            [x_stream("000"), a_stream("000"), b_stream("000")], 10_000, 30
        )
        assert rep.ly_edges == [("a:000", "x:000"), ("b:000", "x:000")]
        assert rep.max_clique_size == 2
        assert "x:000" in rep.max_clique_witness

    def test_duplicate_points_get_distinct_labels(self):
        rep = scrambled_scan([b_stream("000"), b_stream("000")], 1000, 10)
        assert rep.point_labels == ["b:000", "b:000#1"]
        assert rep.max_clique_size == 0
        assert rep.records[0].verdict == VERDICT_ASYMPTOTIC

    def test_certificates_are_wired_through(self):
        cert = certified_b_distality("000", "111")
        rep = scrambled_scan(
            [b_stream("000"), b_stream("111")],
            1000,
            10,
            certificates={("b:000", "b:111"): cert},
        )
        assert rep.records[0].certificate is cert
        assert rep.records[0].verdict == VERDICT_DISTAL

    def test_shared_certificate_subject_scanned_once(self, monkeypatch):
        # x-pair and b-pair share one certificate whose subject is the
        # b-pair: six scans in all (one per pair, the subject's included),
        # and records stay in pair order
        def certs():
            # a fresh certificate, so no subject result is kept from before
            cert = certified_b_distality("000", "111")
            return {("x:000", "x:111"): cert, ("b:000", "b:111"): cert}

        points = [x_stream("000"), x_stream("111"), b_stream("000"), b_stream("111")]
        want = scrambled_scan(points, 1000, 10, certificates=certs())
        calls = _counted_runs(monkeypatch)
        got = scrambled_scan(points, 1000, 10, certificates=certs())
        assert len(calls) == 6
        assert [verdict_record(pv) for pv in got.records] == [
            verdict_record(pv) for pv in want.records
        ]
        assert [(pv.x_label, pv.y_label) for pv in got.records][:2] == [
            ("x:000", "x:111"), ("x:000", "b:000")
        ]

    def test_rejects_tiny_point_sets(self):
        with pytest.raises(ValueError):
            scrambled_scan([b_stream("000")], 100, 5)


class TestWindowMax:
    @staticmethod
    def brute(series, w):
        return [int(series[i:i + w].max()) for i in range(series.size - w + 1)]

    @pytest.mark.parametrize(
        "size, w",
        [(1, 1), (9, 1), (9, 9), (9, 6), (30, 20), (9, 4), (9, 3), (10, 3), (40, 7)],
    )
    def test_edge_shapes(self, size, w):
        # w = 1, one window (count 1), 1 < count <= w, and count > w
        # with and without a partial last block
        series = np.random.default_rng(size * 31 + w).integers(-50, 50, size)
        assert chaoscan._window_max(series, w) == self.brute(series, w)

    @given(
        st.lists(
            st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max),
            min_size=1,
            max_size=60,
        ).flatmap(lambda v: st.tuples(st.just(v), st.integers(1, len(v))))
    )
    def test_random_int64_series(self, case):
        values, w = case
        series = np.array(values, dtype=np.int64)
        got = chaoscan._window_max(series, w)
        assert got == self.brute(series, w)
        assert all(type(v) is int for v in got)


class TestSturmian:
    def test_small_shift_scan(self):
        rep = sturmian_no_LY_check(SQRT2_4, 6, 10_000, 20)
        assert rep.passed
        assert len(rep.pairs) == 21
        by_diff = {}
        for rec in rep.pairs:
            assert rec.verdict == VERDICT_DISTAL
            assert rec.ok
            assert rec.max_lcp < rec.K
            by_diff.setdefault(rec.j - rec.i, rec.K)
        assert [by_diff[d] for d in range(1, 7)] == [7, 7, 17, 4, 7, 12]

    def test_certificates_depend_only_on_shift_difference(self):
        rep = sturmian_no_LY_check(SQRT2_4, 5, 2_000, 10)
        by_diff = {}
        for rec in rep.pairs:
            by_diff.setdefault(rec.j - rec.i, set()).add((rec.K, rec.delta))
        for vals in by_diff.values():
            assert len(vals) == 1

    @pytest.mark.parametrize("max_shift", [0, -3])
    def test_rejects_no_shift_pairs(self, max_shift):
        with pytest.raises(ValueError, match="max_shift must be >= 1"):
            sturmian_no_LY_check(SQRT2_4, max_shift, 2_000, 10)

    def test_failing_records_decide_passed(self):
        def record(verdict, ok):
            return SturmianPairRecord(0, 1, 7, "1/8", 3, verdict, ok)

        good = record(VERDICT_DISTAL, True)
        over = record(VERDICT_DISTAL, False)
        other = record(VERDICT_LY, True)
        rep = SturmianReport("a", 1, 100, 10, [good, over, good, other])
        assert rep.failing == [over, other]
        assert not rep.passed
        rep = SturmianReport("a", 1, 100, 10, [good, good])
        assert rep.failing == []
        assert rep.passed

    @pytest.mark.parametrize("N,m", [(0, 10), (2_000, 0)])
    def test_rejects_empty_scan_before_any_certificate(self, N, m, monkeypatch, capsys):
        calls = []
        real = coding.AtomProfile.depth_for

        def spy(self, delta, *args):
            calls.append(delta)
            return real(self, delta, *args)

        monkeypatch.setattr(coding.AtomProfile, "depth_for", spy)
        with pytest.raises(ValueError, match=r"need N >= 1 and m >= 1"):
            sturmian_no_LY_check(SQRT2_4, 6, N, m)
        assert calls == []
        flags = ["--horizon", str(N), "--resolution", str(m)]
        assert main(["sturmian-check", "--max-shift", "6", *flags]) == 2
        assert capsys.readouterr().err == "error: need N >= 1 and m >= 1\n"


class TestSclosed:
    def test_positive_control(self):
        rep = sclosed_limit_check(["1", "01", "001", "0001"], horizon=10_000)
        assert rep.status == "pass"
        assert rep.lcps == [3, 5, 15]

    def test_constant_list_saturates(self):
        rep = sclosed_limit_check(["1", "1", "1", "1"], horizon=2_000)
        assert rep.status == "pass"
        assert rep.lcps == [2_000, 2_000, 2_000]

    def test_non_monotone_alphas_not_applicable(self):
        rep = sclosed_limit_check(["01", "1", "001", "0001"], horizon=10_000)
        assert rep.status == "not applicable"
        assert rep.lcps == []
        assert not rep.passed

    def test_nested_family_small(self):
        codes = nested_limit_codes(4)
        assert codes == ["1", "01", "001", "0001", "0000"]
        rep = sclosed_limit_check(codes, horizon=10_000)
        assert rep.status == "fail"
        assert rep.lcps == [3, 5, 11, 11]

    # the non-convergent list used to report "not applicable" at horizon 0
    @pytest.mark.parametrize("codes", [["1", "01", "001"], ["01", "1", "001", "0001"]])
    @pytest.mark.parametrize("horizon", [0, -3])
    def test_rejects_nonpositive_horizon_before_any_work(self, codes, horizon, monkeypatch):
        monkeypatch.setattr(chaoscan, "alpha_of", None)
        with pytest.raises(ValueError, match=f"^horizon must be >= 1, not {horizon}$"):
            sclosed_limit_check(codes, horizon=horizon)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            sclosed_limit_check(["1", "0"])
        with pytest.raises(ValueError):
            nested_limit_codes(1)


class TestOmegaScrambled:
    def test_frozen_rows_mid_lengths(self):
        rep = omega_scrambled_check("000", "111", range(8, 11), horizon=100_000)
        got = [
            (r.n, r.diff_st, r.diff_ts, r.intersection, r.z_total, r.z_missing)
            for r in rep.rows
        ]
        assert got == [
            (8, 30, 3, 35, 16, 0),
            (9, 44, 11, 41, 18, 0),
            (10, 62, 23, 46, 20, 0),
        ]
        assert all(r.aperiodic_s and r.aperiodic_t for r in rep.rows)
        assert rep.passed

    def test_insufficient_horizon_notes(self):
        rep = omega_scrambled_check(
            "000", "111", [30], horizon=2_000, z_horizon=25
        )
        assert rep.rows[0].note == "insufficient horizon"
        assert not rep.passed

    def test_rejects_identical_codes(self):
        with pytest.raises(ValueError):
            omega_scrambled_check("000", "000", [5])


class TestPeriodicContainment:
    def test_periodic_language_is_contained(self):
        words = {("0110" * 3)[i : i + 5] for i in range(4)}
        assert contained_in_short_periodic(words, 5)

    def test_aperiodic_language_is_not(self):
        from gehman.coding import factors

        words = factors(a_stream("000"), 13, 10_000)
        assert len(words) > 12
        assert not contained_in_short_periodic(words, 13)

    def test_empty_is_trivially_contained(self):
        assert contained_in_short_periodic(set(), 4)
