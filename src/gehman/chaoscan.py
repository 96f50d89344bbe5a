"""Finite-horizon chaos-pair classification and scrambling scans.

Verdicts are explicitly finite-scale candidates: every report carries
its horizon N and resolution m, and a certified distality bound is a
theorem about the underlying rotation offsets, validated (never
replaced) by the empirical scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from gehman.coding import (
    SymbolStream,
    _bits_for,
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
    """series[n] = lcp(shift(x, n), shift(y, n), cap) for n = 0..N."""
    if N < 0 or cap < 1:
        raise ValueError("need N >= 0 and cap >= 1")
    length = N + cap
    ax = _bits_for(x, length)
    ay = _bits_for(y, length)
    if min(ax.shape[0], ay.shape[0]) < length:
        raise ValueError(f"input too short: fewer than {length} symbols")
    # ends lists the mismatches, then length; repeating each over the
    # shifts up to it gives, in one pass, the first mismatch at or after
    # every shift n.
    mism = np.flatnonzero(ax != ay)
    ends = np.append(mism, length).astype(np.int64, copy=False)
    nxt = np.repeat(ends, np.diff(ends, prepend=-1))[:N + 1]
    nxt -= np.arange(N + 1, dtype=np.int64)
    return np.minimum(nxt, cap, out=nxt)


@dataclass
class DistalityCertificate:
    """Lower bound dist >= 2^-K for all shifts of a pair, with derivation.

    The bound constrains ``subject``; when subject_streams is set the
    scan validates the bound on those streams directly.
    """

    K: int
    delta: QuadSurd
    angle: QuadSurd
    subject: str
    subject_streams: tuple[BitsLike, BitsLike] | None = None
    derivation: dict = field(default_factory=dict)

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


def classify_pair(
    x: BitsLike,
    y: BitsLike,
    N: int,
    m: int,
    certificate: DistalityCertificate | None = None,
    x_label: str | None = None,
    y_label: str | None = None,
    *,
    subject_scans: dict | None = None,
) -> PairVerdict:
    """Scan shifts n = 0..N at lcp cap m+1 and classify the pair.

    Evidence: proximal = first n with lcp >= m; non-asymptotic = for
    every checkpoint c in {m, 2m, 4m, ...} some n in [c, N] with
    lcp <= 2.  A certificate overrides the empirical verdict (its bound
    is a theorem); both the pair scan and the certificate's subject
    scan are checked against the bound and reported.

    When the subject streams are the scanned pair itself, one scan at
    cap max(m+1, K+1) serves both.  ``subject_scans`` keeps each
    certificate's subject result by (id, N), so that a caller
    classifying several pairs under one certificate scans its subject
    once.
    """
    if N < 1 or m < 1:
        raise ValueError("need N >= 1 and m >= 1")
    cap = m + 1
    full = None
    if _own_subject(certificate, x, y):
        # a scan at cap c yields every lower cap by np.minimum
        full = lcp_series(x, y, N, max(cap, certificate.K + 1))
        series = np.minimum(full, cap)
    else:
        series = lcp_series(x, y, N, cap)
    max_val = int(series.max())
    max_at = int(np.argmax(series))

    proximal = None
    hit = series >= m
    if hit.any():
        n0 = int(np.argmax(hit))
        proximal = (n0, int(series[n0]))

    low = np.flatnonzero(series <= 2)
    nonasym: list[tuple[int, int]] | None = []
    for c in _checkpoints(m, N):
        pos = int(np.searchsorted(low, c))
        if pos >= low.size:
            nonasym = None
            break
        nonasym.append((c, int(low[pos])))

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
            scans = {} if subject_scans is None else subject_scans
            key = (id(certificate), N)
            if key not in scans:
                if full is not None:
                    sub = np.minimum(full, sub_cap, out=full)
                else:
                    sub = lcp_series(*certificate.subject_streams, N, sub_cap)
                # the entry keeps the certificate alive, so its id stays unique
                scans[key] = (certificate, int(sub.max()), int(np.argmax(sub)))
            _, smax, smax_at = scans[key]
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
    # scan covers both caps and leaves the subject result for the other
    # pairs under that certificate.  Records keep the pair order.
    subject_scans: dict = {}
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
            subject_scans=subject_scans,
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
    u = mod1(QuadSurd(r_of(cs, config)) + p * config.beta)
    v = mod1(QuadSurd(r_of(ct, config)) + q * config.beta)
    delta = circle_distance(u, v)
    if delta.sign() == 0:
        # r_s ignores trailing zeros, so e.g. 010 and 0100 share a point
        raise ValueError(
            f"codes {cs} and {ct} alias: both have base point "
            f"r = {r_of(cs, config)}, so their b-orbits coincide"
        )
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
            "r_s": str(r_of(cs, config)),
            "r_t": str(r_of(ct, config)),
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
    def passed(self) -> bool:
        return all(r.verdict == VERDICT_DISTAL and r.ok for r in self.pairs)


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
    a = sturmian_stream(alpha)
    profile = atom_profile(a.alpha)
    certs: dict[int, DistalityCertificate] = {}
    for diff in range(1, max_shift + 1):
        delta = circle_distance(mod1(diff * a.alpha), QuadSurd(0))
        if delta.sign() == 0:
            raise RuntimeError("internal failure: rational rotation angle")
        certs[diff] = DistalityCertificate(
            K=profile.depth_for(delta),
            delta=delta,
            angle=a.alpha,
            subject="pair",
            derivation={"shift_difference": diff},
        )
    # Slices must cover both the pair scan (cap m+1) and the subject
    # scan at cap K+1, whichever is longer.
    k_max = max(c.K for c in certs.values())
    base = a.array(N + max_shift + max(k_max, m) + 1)
    pairs = []
    for i in range(max_shift + 1):
        for j in range(i + 1, max_shift + 1):
            cert = certs[j - i]
            need = N + max(cert.K, m) + 1
            ax = base[i:i + need]
            ay = base[j:j + need]
            pv = classify_pair(
                ax,
                ay,
                N,
                m,
                certificate=replace(cert, subject_streams=(ax, ay)),
                x_label=f"shift:{i}",
                y_label=f"shift:{j}",
            )
            pairs.append(
                SturmianPairRecord(
                    i=i,
                    j=j,
                    K=cert.K,
                    delta=str(cert.delta),
                    max_lcp=pv.bound_check["subject_max_lcp"],
                    verdict=pv.verdict,
                    ok=pv.bound_check["ok"],
                )
            )
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
    if cs.s == ct.s:
        raise ValueError("omega_scrambled_check requires distinct codes")
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
