"""Finite-horizon chaos-pair classification and scrambling scans.

Verdicts are explicitly finite-scale candidates: every report carries
its horizon N and resolution m, and a certified distality bound is a
theorem about the underlying rotation offsets, validated (never
replaced) by the empirical scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from gehman.coding import (
    SymbolStream,
    _bits_for,
    _packed_bits,
    atom_profile,
    factors,
    lcp,
    recurrent_factors,
    shift,
    sturmian_stream,
)
from gehman.exactnum import QuadSurd, circle_distance, mod1
from gehman.family import (
    DEFAULT_CONFIG,
    FamilyConfig,
    CodeLike,
    _code,
    _refuse_alias,
    a_stream,
    alpha_of,
    b_stream,
    r_of,
    x_stream,
)

VERDICT_LY = "LY-candidate"
VERDICT_ASYMPTOTIC = "asymptotic-candidate"
VERDICT_DISTAL = "distal-candidate"
VERDICT_INCONCLUSIVE = "inconclusive"

BitsLike = Union[SymbolStream, np.ndarray]


def _label(x: BitsLike, fallback: str) -> str:
    return x.label if isinstance(x, SymbolStream) else fallback


def lcp_series(x: BitsLike, y: BitsLike, N: int, cap: int) -> np.ndarray:
    """series[n] = lcp(shift(x, n), shift(y, n), cap) for n = 0..N.

    One elementwise compare of the first N + cap symbols, with position
    N + cap read as a mismatch, lists the mismatches up to the first at
    or after N; repeating each over the shifts of its run gives the
    first mismatch at or after every shift in one ``np.repeat`` pass.
    """
    if N < 0 or cap < 1:
        raise ValueError("need N >= 0 and cap >= 1")
    length = N + cap
    ax = _bits_for(x, length)
    ay = _bits_for(y, length)
    if min(ax.shape[0], ay.shape[0]) < length:
        raise ValueError(f"input too short: fewer than {length} symbols")
    neq = np.empty(length + 1, dtype=bool)
    np.not_equal(ax, ay, out=neq[:length])
    neq[length] = True
    ends = np.flatnonzero(neq)
    ends = ends[:int(np.searchsorted(ends, N)) + 1]
    nxt = np.repeat(ends, np.diff(ends, prepend=-1))[:N + 1]
    nxt = nxt.astype(np.int64, copy=False)
    nxt -= np.arange(N + 1, dtype=np.int64)
    return np.minimum(nxt, cap, out=nxt)


@dataclass(frozen=True)
class DistalityCertificate:
    """Lower bound dist >= 2^-K for all shifts of a pair, with derivation.

    The bound constrains ``subject``; when subject_streams is set the
    scan validates the bound on those streams directly.  The subject's
    (max lcp, first argmax) at cap K+1 is kept by horizon N: the fields
    that decide it are frozen, so N is the whole key.
    """

    K: int
    delta: QuadSurd
    angle: QuadSurd
    subject: str
    subject_streams: tuple[BitsLike, BitsLike] | None = None
    derivation: dict = field(default_factory=dict)
    _subject_peaks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def bound(self) -> Fraction:
        return Fraction(1, 2**self.K)


@dataclass
class PairVerdict:
    x_label: str
    y_label: str
    verdict: str
    N: int
    m: int
    proximal_evidence: tuple[int, int] | None
    nonasymptotic_evidence: list[tuple[int, int]] | None
    certificate: DistalityCertificate | None = None
    bound_check: dict | None = None
    max_lcp: tuple[int, int] = (0, 0)


def _checkpoints(m: int, N: int) -> list[int]:
    out = []
    c = m
    while c <= N:
        out.append(c)
        c *= 2
    return out


def _own_subject(certificate, x, y) -> bool:
    """True when the certificate bounds exactly the pair (x, y)."""
    streams = certificate.subject_streams if certificate is not None else None
    return streams is not None and streams[0] is x and streams[1] is y


class _LcpRuns:
    """``lcp_series(x, y, N, c)`` for every c <= cap, as packed agreement bits.

    The pair compare of ``classify_pair``: the packed mismatches are the
    XOR of the two inputs' first N + cap symbols as little-endian uint64
    words (:meth:`SymbolStream.packed`, which packs each stream once for
    all of its pairs; an array is packed here), with the bits from
    N + cap on (at least one) set.  R_L has bit i set iff symbols
    i..i+L-1 agree, so for L <= c the series at cap c is >= L at shift
    n <= N exactly where R_L has bit n set.  R_1 is the complement of
    the packed mismatches; R_L for L > 1 is R_P & (R_P >> (L - P)), P
    the largest power of two below L, since the windows of length P at
    i and at i + L - P overlap and cover i..i+L-1.  A shift by 64 or
    more drops whole words; what is left moves bits across one word
    edge.

    Each query reads these words, and none lists the mismatch positions:

    * The first set bit n <= N of R_v is the first shift with lcp >= v.
      It starts a run of agreement: bit n - 1 of R_v is clear and bit n
      is set, so only symbol n - 1 can disagree.  Its lcp is the
      distance to the first mismatch from n on, capped.
    * The max at cap is the largest L <= cap whose R_L has such a bit:
      R_cap itself, or else found by doubling L while it has one and
      then by halving steps.  Its first argmax is that bit.
    * A shift has lcp <= 2 at a cap > 2 iff its R_3 bit is clear.

    Every R_L and its first bit are kept, so the queries of one pair and
    the two caps of an own-subject scan share them, and an R_L with no
    bit at or below N answers every longer L.
    """

    def __init__(self, x: BitsLike, y: BitsLike, N: int, cap: int):
        if N < 0 or cap < 1:
            raise ValueError("need N >= 0 and cap >= 1")
        length = N + cap
        miss = _packed_bits(x, length) ^ _packed_bits(y, length)
        miss[-1] |= np.uint64(-1 << (length & 63) & (2**64 - 1))
        self.N, self._miss = N, miss
        self._words = N // 64 + 1  # the words that hold shifts 0..N
        self._agree = {1: ~miss}
        self._first: dict[int, int | None] = {}
        # R_L for L <= _some_to has a bit <= N, for L >= _none_from none
        self._some_to, self._none_from = 0, length + 1

    def _r(self, L: int) -> np.ndarray:
        """R_L as words; a word past the end of the array is zero."""
        R = self._agree.get(L)
        if R is None:
            P = 1 << ((L - 1).bit_length() - 1)
            base = self._r(P)
            q, r = divmod(L - P, 64)
            ahead = base[q:]
            if r:
                ahead = ahead >> r
                ahead[:-1] |= base[q + 1:] << (64 - r)
            R = self._agree[L] = ahead & base[:ahead.size]
        return R

    def _first_set(self, L: int) -> int | None:
        """First shift n <= N with lcp >= L (at a cap >= L), or None."""
        if L >= self._none_from:
            return None
        if L not in self._first:
            R = self._r(L)[:self._words]
            k = int(R.astype(bool).argmax())
            w = int(R[k])
            n = 64 * k + _lowest_bit(w) if w else None
            if n is None or n > self.N:
                n, self._none_from = None, L
            else:
                self._some_to = max(self._some_to, L)
            self._first[L] = n
        return self._first[L]

    def _reaches(self, L: int) -> bool:
        """Whether some shift n <= N has lcp >= L."""
        return L <= self._some_to or self._first_set(L) is not None

    def peak(self, cap: int) -> tuple[int, int]:
        """Max of the series at cap and the first shift that takes it."""
        top = cap
        if not self._reaches(cap):
            top, L = 0, 1
            while self._reaches(L):
                top, L = L, 2 * L
            step = top // 2
            while step:
                if self._reaches(top + step):
                    top += step
                step //= 2
        return top, self._first_set(top) if top else 0

    def first_reaching(self, v: int, cap: int) -> tuple[int, int] | None:
        """First (n, lcp) with lcp >= v at cap (v <= cap), or None."""
        n = self._first_set(v)
        if n is None:
            return None
        return n, min(self._next_miss(n, (n + cap) >> 6) - n, cap)

    def first_low(self, checkpoints: list[int], cap: int) -> list[int | None]:
        """First n in [c, N] with lcp <= 2 at cap, for each c, or None.

        At a cap <= 2 that is c itself.  At a cap > 2 it is the first
        clear bit of R_3 at or after c, which is max(c, e - 2) for the
        first mismatch e >= c.  Each c's search starts in its own word of
        the packed mismatches and reads forward in slices that double in
        length, so a long run of agreement costs O(log) slices and a
        short one a single word; it stops at the word that holds shift
        N + 2.
        """
        last = (self.N + 2) >> 6
        out = []
        for c in checkpoints:
            e = self._next_miss(c, last) if cap > 2 and c <= self.N else c
            n = max(c, e - 2)
            out.append(n if n <= self.N else None)
        return out

    def _next_miss(self, c: int, last: int) -> int:
        """First mismatch e >= c in the words up to ``last``, or else
        the first shift past them."""
        k = c >> 6
        head = int(self._miss[k]) >> (c & 63)
        if head:
            return c + _lowest_bit(head)
        span = 4
        while k < last:
            words = self._miss[k + 1:min(k + 1 + span, last + 1)]
            hit = np.flatnonzero(words)
            if hit.size:
                k += 1 + int(hit[0])
                return 64 * k + _lowest_bit(int(self._miss[k]))
            k += words.size
            span *= 2
        return 64 * (last + 1)


def _lowest_bit(w: int) -> int:
    """Index of the lowest set bit of w > 0."""
    return (w & -w).bit_length() - 1


def classify_pair(
    x: BitsLike,
    y: BitsLike,
    N: int,
    m: int,
    certificate: DistalityCertificate | None = None,
    x_label: str | None = None,
    y_label: str | None = None,
) -> PairVerdict:
    """Scan shifts n = 0..N at lcp cap m+1 and classify the pair.

    Evidence: proximal = first n with lcp >= m; non-asymptotic = for
    every checkpoint c in {m, 2m, 4m, ...} up to N, of which there must
    be at least one, some n in [c, N] with lcp <= 2.  A certificate
    overrides the empirical verdict (its bound is a theorem); both the
    pair scan and the certificate's subject scan are checked against
    the bound and reported.

    Every field is a bit query on the packed agreement words R_L of one
    XOR of the two streams' packed words (``_LcpRuns``; an array input
    must hold only 0/1, or ValueError is raised): max and argmax from the
    largest L <= m+1 whose R_L has a bit at a shift <= N, the proximal
    shift from the first such bit of R_m, and each checkpoint's shift
    from the first clear bit of R_3 at or after it.  Neither the series
    nor the list of mismatches is built.  When the subject streams are
    the scanned pair itself, one compare over N + max(m+1, K+1) symbols
    serves both caps and shares its R_L.  The subject's result is kept
    on the certificate by N, so the subject is compared once for all
    the pairs classified under one certificate.
    """
    if N < 1 or m < 1:
        raise ValueError("need N >= 1 and m >= 1")
    cap = m + 1
    own = _own_subject(certificate, x, y)
    runs = _LcpRuns(x, y, N, max(cap, certificate.K + 1) if own else cap)
    max_val, max_at = runs.peak(cap)
    proximal = runs.first_reaching(m, cap)
    checkpoints = _checkpoints(m, N)
    nonasym = list(zip(checkpoints, runs.first_low(checkpoints, cap)))
    if not nonasym or any(n is None for _, n in nonasym):
        nonasym = None

    bound_check = None
    if certificate is not None:
        # The certified bound constrains the certificate's subject
        # streams; when those are a different pair than the scanned one
        # (b-sources underlying x-points) the pair fields below are
        # diagnostics only, since the transfer to the pair adds the
        # a-side agreement slack on top of K.
        verdict = VERDICT_DISTAL
        bound_check = {
            "limit": certificate.K,
            "pair_max_lcp": max_val,
            "pair_cap": cap,
            "pair_ok": max_val < certificate.K,
        }
        if certificate.subject_streams is not None:
            sub_cap = certificate.K + 1
            peaks = certificate._subject_peaks
            if N not in peaks:
                sub = runs if own else _LcpRuns(*certificate.subject_streams, N, sub_cap)
                peaks[N] = sub.peak(sub_cap)
            smax, smax_at = peaks[N]
            bound_check.update(
                subject=certificate.subject,
                subject_max_lcp=smax,
                subject_max_at=smax_at,
                subject_cap=sub_cap,
                subject_ok=smax < certificate.K,
            )
        bound_check["ok"] = bound_check.get("subject_ok", bound_check["pair_ok"])
    elif proximal is not None and nonasym is not None:
        verdict = VERDICT_LY
    elif proximal is not None:
        verdict = VERDICT_ASYMPTOTIC
    elif nonasym is not None:
        verdict = VERDICT_DISTAL
    else:
        verdict = VERDICT_INCONCLUSIVE

    return PairVerdict(
        x_label=x_label or _label(x, "x"),
        y_label=y_label or _label(y, "y"),
        verdict=verdict,
        N=N,
        m=m,
        proximal_evidence=proximal,
        nonasymptotic_evidence=nonasym,
        certificate=certificate,
        bound_check=bound_check,
        max_lcp=(max_val, max_at),
    )


def verdict_record(pv: PairVerdict) -> dict:
    """JSON-ready dict for one pair, fixed key order."""
    rec: dict = {
        "x": pv.x_label,
        "y": pv.y_label,
        "verdict": pv.verdict,
        "N": pv.N,
        "m": pv.m,
    }
    if pv.proximal_evidence is not None:
        rec["proximal"] = {
            "n": pv.proximal_evidence[0],
            "lcp": pv.proximal_evidence[1],
        }
    else:
        rec["proximal"] = None
    if pv.nonasymptotic_evidence is not None:
        rec["nonasymptotic"] = [t for _, t in pv.nonasymptotic_evidence]
    else:
        rec["nonasymptotic"] = None
    if pv.certificate is not None:
        cb: dict = {"K": pv.certificate.K}
        if pv.certificate.delta.is_rational:
            fr = pv.certificate.delta.as_fraction()
            cb["delta_num"] = fr.numerator
            cb["delta_den"] = fr.denominator
        else:
            cb["delta"] = str(pv.certificate.delta)
        rec["certified_bound"] = cb
    else:
        rec["certified_bound"] = None
    if pv.bound_check is not None:
        rec["bound_check"] = pv.bound_check
    rec["max_lcp"] = {"value": pv.max_lcp[0], "n": pv.max_lcp[1]}
    return rec


# -- scrambled-set scanning -------------------------------------------------


@dataclass
class ScrambleReport:
    point_labels: list[str]
    records: list[PairVerdict]
    ly_edges: list[tuple[str, str]]
    max_clique_size: int
    max_clique_witness: list[str]
    N: int
    m: int


def _max_clique(labels: list[str], edges: set[frozenset]) -> tuple[int, list[str]]:
    # Exact max clique; clique size counts only LY-connected sets, so an
    # edgeless graph reports 0.
    if not edges:
        return 0, []
    adj: dict[str, set[str]] = {l: set() for l in labels}
    for e in edges:
        a, b = tuple(e)
        adj[a].add(b)
        adj[b].add(a)
    best: list[str] = []

    def extend(clique: list[str], cand: list[str]) -> None:
        nonlocal best
        if len(clique) > len(best):
            best = list(clique)
        for i, v in enumerate(cand):
            if len(clique) + len(cand) - i <= len(best):
                break
            extend(clique + [v], [u for u in cand[i + 1:] if u in adj[v]])

    extend([], sorted(labels))
    return len(best), best


def scrambled_scan(
    points: Sequence[SymbolStream],
    N: int,
    m: int,
    certificates: dict[tuple[str, str], DistalityCertificate] | None = None,
) -> ScrambleReport:
    """Pairwise classify a point set and report the exact max LY clique.

    ``certificates`` maps (label, label) pairs (either order) to
    distality certificates used for the corresponding scans.
    """
    if not 2 <= len(points) <= 32:
        raise ValueError("scrambled_scan expects 2..32 points")
    labels = []
    for i, p in enumerate(points):
        # repeated inputs are legal; disambiguate their labels
        labels.append(p.label if p.label not in labels else f"{p.label}#{i}")
    certificates = certificates or {}
    pairs = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            cert = certificates.get((labels[i], labels[j])) or certificates.get(
                (labels[j], labels[i])
            )
            pairs.append((i, j, cert))
    # A pair that is its own certificate's subject goes first: its one
    # scan covers both caps and leaves the subject result on the
    # certificate for the other pairs.  Records keep the pair order.
    verdicts = {}
    for i, j, cert in sorted(
        pairs, key=lambda p: _own_subject(p[2], points[p[0]], points[p[1]]),
        reverse=True,
    ):
        verdicts[i, j] = classify_pair(
            points[i],
            points[j],
            N,
            m,
            certificate=cert,
            x_label=labels[i],
            y_label=labels[j],
        )
    records = [verdicts[i, j] for i, j, _ in pairs]
    edges = {
        frozenset((pv.x_label, pv.y_label))
        for pv in records
        if pv.verdict == VERDICT_LY
    }
    size, witness = _max_clique(labels, edges)
    return ScrambleReport(
        point_labels=list(labels),
        records=records,
        ly_edges=sorted(tuple(sorted(e)) for e in edges),
        max_clique_size=size,
        max_clique_witness=witness,
        N=N,
        m=m,
    )


# -- certificates -----------------------------------------------------------


def certified_b_distality(
    s: CodeLike,
    t: CodeLike,
    p: int = 0,
    q: int = 0,
    config: FamilyConfig = DEFAULT_CONFIG,
) -> DistalityCertificate:
    """Distality bound for (shift(b_s, p), shift(b_t, q)), valid for ALL n.

    The two orbits keep the constant circle offset
    delta = circle_distance(r_s + p*beta, r_t + q*beta); any depth K
    whose atoms are finer than delta forces the itineraries apart within
    K symbols at every time, hence dist >= 2^-K forever.
    """
    cs, ct = _code(s), _code(t)
    if cs.s == ct.s:
        raise ValueError("certified_b_distality requires distinct codes")
    if p < 0 or q < 0:
        raise ValueError("shifts must be nonnegative")
    r_s, r_t = r_of(cs, config), r_of(ct, config)
    u = mod1(r_s + p * config.beta)
    v = mod1(r_t + q * config.beta)
    delta = circle_distance(u, v)
    if delta.sign() == 0:
        # beta is irrational, so a zero offset means p = q and r_s = r_t
        _refuse_alias("b", cs, ct, config)
    K = atom_profile(config.beta).depth_for(delta)
    subject = (shift(b_stream(cs, config), p), shift(b_stream(ct, config), q))
    return DistalityCertificate(
        K=K,
        delta=delta,
        angle=config.beta,
        subject=f"b:{cs}+{p}|b:{ct}+{q}",
        subject_streams=subject,
        derivation={
            "p": p,
            "q": q,
            "r_s": str(r_s),
            "r_t": str(r_t),
        },
    )


# -- Sturmian shift pairs ---------------------------------------------------


@dataclass
class SturmianPairRecord:
    i: int
    j: int
    K: int
    delta: str
    max_lcp: int
    verdict: str
    ok: bool


@dataclass
class SturmianReport:
    alpha: str
    max_shift: int
    N: int
    m: int
    pairs: list[SturmianPairRecord]

    @property
    def failing(self) -> list[SturmianPairRecord]:
        """The pairs not certified distal, or whose scan exceeds the bound."""
        return [r for r in self.pairs if r.verdict != VERDICT_DISTAL or not r.ok]

    @property
    def passed(self) -> bool:
        return not self.failing


def _window_max(series: np.ndarray, w: int) -> list[int]:
    """max(series[i:i+w]) for every full window i = 0..len(series)-w.

    Cutting the series at every window start and end leaves pieces
    (one reduceat pass), and each of the count windows is a run of
    L = min(count, w) pieces: with fewer windows than w, the middle all
    windows share is one piece.  The run maxima come from block prefix
    and suffix maxima (van Herk / Gil-Werman): in blocks of L pieces,
    run i, which meets at most two blocks, has max(suffix[i],
    prefix[i+L-1]).  The padding of a short last block is never read:
    every run starts in a full block and ends by the last piece.
    """
    count = series.size - w + 1
    span = min(count, w)
    cuts = np.concatenate((np.arange(count), np.arange(max(count, w), series.size)))
    pieces = np.maximum.reduceat(series, cuts)
    blocks = np.pad(pieces, (0, -pieces.size % span)).reshape(-1, span)
    prefix = np.maximum.accumulate(blocks, axis=1).ravel()
    suffix = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.maximum(suffix[:count], prefix[span - 1:span - 1 + count]).tolist()


def sturmian_no_LY_check(
    alpha,
    max_shift: int = 50,
    N: int = 100_000,
    m: int = 20,
) -> SturmianReport:
    """Certify every shift pair of A(alpha) as distal and validate by scan.

    The offset of (shift i, shift j) is the constant mod1((j-i)*alpha),
    so one certificate per shift difference covers all 0 <= i < j <=
    max_shift.
    """
    if max_shift < 1:
        raise ValueError("max_shift must be >= 1")
    if N < 1 or m < 1:
        raise ValueError("need N >= 1 and m >= 1")
    a = sturmian_stream(alpha)
    profile = atom_profile(a.alpha)
    certs: dict[int, tuple[int, str]] = {}
    for diff in range(1, max_shift + 1):
        delta = circle_distance(mod1(diff * a.alpha), QuadSurd(0))
        if delta.sign() == 0:
            raise RuntimeError("internal failure: rational rotation angle")
        certs[diff] = profile.depth_for(delta), str(delta)
    # Pair (i, j) at shift n compares base[i+n:] with base[j+n:], so its
    # series at cap K+1 is the window [i, i+N] of one series per shift
    # difference; its max is the pair's max_lcp.
    base = a.array(N + max_shift + max(K for K, _ in certs.values()) + 1)
    pairs = []
    for diff, (K, delta) in certs.items():
        series = lcp_series(base, base[diff:], N + max_shift - diff, K + 1)
        for i, top in enumerate(_window_max(series, N + 1)):
            pairs.append(
                SturmianPairRecord(
                    i=i,
                    j=i + diff,
                    K=K,
                    delta=delta,
                    max_lcp=top,
                    verdict=VERDICT_DISTAL,
                    ok=top < K,
                )
            )
    pairs.sort(key=lambda r: (r.i, r.j))
    return SturmianReport(
        alpha=str(a.alpha), max_shift=max_shift, N=N, m=m, pairs=pairs
    )


# -- limit coherence --------------------------------------------------------


@dataclass
class SclosedReport:
    codes: list[str]
    lcps: list[int]
    status: str
    horizon: int

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def sclosed_limit_check(
    codes: Sequence[CodeLike],
    horizon: int = 100_000,
    config: FamilyConfig = DEFAULT_CONFIG,
) -> SclosedReport:
    """Convergence surrogate: approximant codings agree ever longer.

    The last code is the limit; the |alpha_k - alpha_limit| must be
    monotonically nonincreasing (exact rational comparison) or the
    check reports "not applicable". Passes when lcp against the limit
    coding strictly increases, allowing repeats only at the horizon cap.
    This is the strict form: approximants on one side of the limit only
    force a nondecreasing lcp, so a "fail" on a plateau is not a
    counterexample to convergence.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, not {horizon}")
    code_list = [_code(c) for c in codes]
    names = [str(c) for c in code_list]
    if len(code_list) < 3:
        raise ValueError("need at least three codes (approximants then limit)")
    limit = code_list[-1]
    alpha_lim = alpha_of(limit, config)
    diffs = [abs(alpha_of(c, config) - alpha_lim) for c in code_list[:-1]]
    for k in range(len(diffs) - 1):
        if (diffs[k + 1] - diffs[k]).sign() > 0:
            return SclosedReport(names, [], "not applicable", horizon)
    lim_stream = a_stream(limit, config)
    lcps = [
        lcp(a_stream(c, config), lim_stream, horizon) for c in code_list[:-1]
    ]
    ok = all(
        later > earlier or (earlier == horizon and later == horizon)
        for earlier, later in zip(lcps, lcps[1:])
    )
    return SclosedReport(names, lcps, "pass" if ok else "fail", horizon)


def nested_limit_codes(depth: int = 10) -> list[str]:
    """The canonical convergent family: "1", "01", ..., then the limit.

    Code k is k-1 zeros followed by a single 1; the limit is all zeros
    (trailing zeros do not change the angle).
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    out = ["0" * (k - 1) + "1" for k in range(1, depth + 1)]
    out.append("0" * depth)
    return out


# -- omega-scrambling surrogate ---------------------------------------------


@dataclass
class OmegaRow:
    n: int
    diff_st: int
    diff_ts: int
    intersection: int
    z_total: int
    z_missing: int
    aperiodic_s: bool
    aperiodic_t: bool
    note: str = ""

    @property
    def passed(self) -> bool:
        return (
            self.diff_st >= 1
            and self.diff_ts >= 1
            and self.z_missing == 0
            and self.aperiodic_s
            and self.aperiodic_t
        )


@dataclass
class OmegaScrambleReport:
    s: str
    t: str
    rows: list[OmegaRow]
    params: dict

    @property
    def passed(self) -> bool:
        """Strict form: every applicable length passes.

        omega-scrambling needs only one separating length, so a failing
        short length is not a counterexample to it.
        """
        applicable = [r for r in self.rows if not r.note]
        return bool(applicable) and all(r.passed for r in applicable)


def contained_in_short_periodic(words: set[str], n: int, max_period: int = 12) -> bool:
    """True iff all words are factors of one periodic word of period <= max_period."""
    if not words:
        return True
    if len(words) > max_period:
        # a period-p word has at most p distinct factors of any length
        return False
    for p in range(1, max_period + 1):
        if len(words) > p:
            continue
        reps = -(-(n + p) // p)
        for bits in range(2**p):
            u = format(bits, f"0{p}b") * reps
            if words <= {u[i:i + n] for i in range(p)}:
                return True
    return False


def omega_scrambled_check(
    s: CodeLike,
    t: CodeLike,
    n_range: Sequence[int],
    horizon: int = 1_000_000,
    tail_start: int | None = None,
    min_count: int = 5,
    z_horizon: int = 10_000,
    config: FamilyConfig = DEFAULT_CONFIG,
) -> OmegaScrambleReport:
    """Per-length surrogate of the three omega-scrambling requirements.

    For each n: both recurrent-factor differences of (x_s, x_t) must be
    nonempty, every common factor of the two b-codings must recur in
    both x's, and neither recurrent set may sit inside a short periodic
    language. The report passes only in the strict form, every length
    in n_range; Li's omega(x_s) minus omega(x_t) != {} needs one
    separating length, which longer lengths inherit, so a "fail" at
    short lengths is not a counterexample to omega-scrambling.
    """
    cs, ct = _code(s), _code(t)
    _refuse_alias("x", cs, ct, config)
    if tail_start is None:
        tail_start = horizon // 100
    xs = x_stream(cs, config)
    xt = x_stream(ct, config)
    bs = b_stream(cs, config)
    bt = b_stream(ct, config)
    rows: dict[int, OmegaRow] = {}
    # longest first: each stream packs and sorts its windows once, and
    # the shorter lengths are read off that spectrum
    for n in sorted(set(n_range), reverse=True):
        if tail_start + n > horizon or z_horizon < n:
            rows[n] = OmegaRow(
                n, 0, 0, 0, 0, 0, False, False, note="insufficient horizon"
            )
            continue
        r_s = recurrent_factors(xs, n, horizon, tail_start, min_count)
        r_t = recurrent_factors(xt, n, horizon, tail_start, min_count)
        z_common = factors(bs, n, z_horizon) & factors(bt, n, z_horizon)
        inter = r_s & r_t
        rows[n] = OmegaRow(
            n=n,
            diff_st=len(r_s - r_t),
            diff_ts=len(r_t - r_s),
            intersection=len(inter),
            z_total=len(z_common),
            z_missing=len(z_common - inter),
            aperiodic_s=not contained_in_short_periodic(r_s, n),
            aperiodic_t=not contained_in_short_periodic(r_t, n),
        )
    return OmegaScrambleReport(
        s=cs.s,
        t=ct.s,
        rows=[rows[n] for n in n_range],
        params={
            "horizon": horizon,
            "tail_start": tail_start,
            "min_count": min_count,
            "z_horizon": z_horizon,
        },
    )
