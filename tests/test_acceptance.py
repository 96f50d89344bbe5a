"""Acceptance suite: twelve criteria, one test and one PASS/FAIL line each.

Each test prints "[Cxx] PASS ..." or "[Cxx] FAIL ..." with the measured
evidence before asserting, so the per-criterion verdict survives in the
captured output either way.  Criteria 7 and 9 assert the paper's
statements rather than the stricter per-row verdicts of the library
checks: C07 asks for Li's omega-scrambling conditions from the first
factor length n0 that separates each pair (printed per pair), and C09
matches every nested-family lcp against its exact first-separation
index from the cut geometry, printing the orbit index and cut that
explain each plateau.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import oracle
from gehman.chaoscan import (
    VERDICT_DISTAL,
    VERDICT_LY,
    certified_b_distality,
    classify_pair,
    nested_limit_codes,
    omega_scrambled_check,
    sclosed_limit_check,
    scrambled_scan,
    sturmian_no_LY_check,
)
from gehman.coding import (
    PeriodicStream,
    dist,
    factor_count_profile,
    lcp,
    shift,
    sturmian_stream,
)
from gehman.dendrite import (
    ROOT,
    End,
    Interior,
    apply_f,
    family_model,
    full_binary_model,
    path_dist,
    steps_to_root,
)
from gehman.diamond import (
    DiamondStream,
    omega_lower_check,
    omega_upper_check,
    position_decode,
)
from gehman.exactnum import QuadSurd, mod1
from gehman.family import (
    DEFAULT_CODES,
    a_stream,
    alpha_of,
    b_stream,
    x_stream,
)

HORIZON = 1_000_000
RESOLUTION = 30
ORACLE_HORIZON = 10_000


def report(tag: str, ok: bool, detail: str) -> None:
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def test_c01_exactness_against_interval_oracle():
    mismatches = []
    for code in DEFAULT_CODES:
        if sturmian_stream(alpha_of(code)).word(ORACLE_HORIZON) != oracle.oracle_A_word(
            code, ORACLE_HORIZON
        ):
            mismatches.append(("A", code))
        if a_stream(code).word(ORACLE_HORIZON) != oracle.oracle_a_word(
            code, ORACLE_HORIZON
        ):
            mismatches.append(("a", code))
        if b_stream(code).word(ORACLE_HORIZON) != oracle.oracle_b_word(
            code, ORACLE_HORIZON
        ):
            mismatches.append(("b", code))
    report(
        "C01",
        not mismatches,
        f"24 words x {ORACLE_HORIZON} symbols vs 256-bit interval oracle, "
        f"mismatches={mismatches or 0}",
    )


def test_c02_diamond_layout_and_decode():
    prefix = DiamondStream(PeriodicStream("0"), PeriodicStream("1")).word(12)
    tags = []
    k = 0
    while len(tags) < 100_000:
        k += 1
        tags.extend(("A", k, j) for j in range(1, k + 1))
        tags.extend(("B", k, j) for j in range(1, k + 1))
    bad = sum(
        1 for i in range(1, 100_001) if tuple(position_decode(i)) != tags[i - 1]
    )
    ok = prefix == "010011000111" and bad == 0
    report("C02", ok, f"prefix={prefix}, decode mismatches over 1e5: {bad}")


def test_c03_lower_inclusion_all_codes():
    failing = {}
    for code in DEFAULT_CODES:
        rep = omega_lower_check(
            a_stream(code),
            b_stream(code),
            20,
            HORIZON,
            tail_start=10_000,
            min_count=5,
            source_horizon=10_000,
        )
        if not rep.passed:
            failing[code] = (rep.status, len(rep.violations))
    report(
        "C03",
        not failing,
        f"source 20-factors recur >=5x beyond 1e4 in x_s over 1e6; "
        f"failures={failing or 0}",
    )


def test_c04_upper_inclusion_all_codes():
    failing = {}
    for code in DEFAULT_CODES:
        rep = omega_upper_check(
            a_stream(code),
            b_stream(code),
            20,
            HORIZON,
            tail_start=10_000,
            min_count=5,
            source_horizon=10_000,
            subject=x_stream(code),
        )
        if not rep.passed:
            failing[code] = rep.violations[:3]
    report(
        "C04",
        not failing,
        f"recurrent 20-factors of x_s all classified, zero 'none'; "
        f"failures={failing or 0}",
    )


def test_c05_family_pair_is_li_yorke():
    bad = {}
    proximal_at = {}
    for code in DEFAULT_CODES:
        pv = classify_pair(x_stream(code), a_stream(code), HORIZON, RESOLUTION)
        exact_seed = lcp(shift(x_stream(code), 870), a_stream(code), 31)
        if (
            pv.verdict != VERDICT_LY
            or pv.proximal_evidence is None
            or pv.nonasymptotic_evidence is None
            or exact_seed < 30
        ):
            bad[code] = (pv.verdict, exact_seed)
        else:
            proximal_at[code] = pv.proximal_evidence[0]
    report(
        "C05",
        not bad,
        f"(x_s,a_s) LY-candidate at (1e6,30), exact lcp>=30 at shift 870; "
        f"first proximal n={proximal_at}, failures={bad or 0}",
    )


def test_c06_no_scrambled_triple():
    triple_bad = {}
    for code in DEFAULT_CODES:
        rep = scrambled_scan(
            [x_stream(code), a_stream(code), b_stream(code)], HORIZON, RESOLUTION
        )
        if rep.max_clique_size != 2:
            triple_bad[code] = rep.max_clique_size
    points = [x_stream(c) for c in DEFAULT_CODES]
    certs = {}
    for i, s in enumerate(DEFAULT_CODES):
        for t in DEFAULT_CODES[i + 1 :]:
            certs[(f"x:{s}", f"x:{t}")] = certified_b_distality(s, t)
    xrep = scrambled_scan(points, HORIZON, RESOLUTION, certificates=certs)
    uncertified = [
        (r.x_label, r.y_label)
        for r in xrep.records
        if r.certificate is None or not r.bound_check["ok"]
    ]
    ok = not triple_bad and not xrep.ly_edges and not uncertified
    report(
        "C06",
        ok,
        f"triples clique=2 (bad={triple_bad or 0}); x-scan edges={xrep.ly_edges}, "
        f"clique={xrep.max_clique_size}, bound violations={uncertified or 0}",
    )


def omega_separation(s: str, t: str, n_range) -> tuple[int | None, list[int]]:
    """First separating factor length n0 of (x_s, x_t) and the bad lengths.

    Li's omega(x) minus omega(y) != {} needs one length at which the
    recurrent-factor sets differ; the omega languages are factorial, so
    every longer length inherits the difference.  n0 is the first n in
    n_range with both differences nonempty.  A length is bad when, from
    n0 on, its row fails, or when, at any n, a common b-factor is missing
    from the intersection or a recurrent set is short-periodic.
    """
    rep = omega_scrambled_check(s, t, n_range, horizon=HORIZON)
    n0 = next((r.n for r in rep.rows if r.diff_st >= 1 and r.diff_ts >= 1), None)
    bad = [
        r.n
        for r in rep.rows
        if r.z_missing != 0
        or not (r.aperiodic_s and r.aperiodic_t)
        or (n0 is not None and r.n >= n0 and not r.passed)
    ]
    return n0, bad


def test_c07_omega_scrambled_every_pair():
    first_separating = {}
    failures = {}
    for i, s in enumerate(DEFAULT_CODES):
        for t in DEFAULT_CODES[i + 1 :]:
            n0, bad = omega_separation(s, t, range(5, 21))
            first_separating[f"{s}/{t}"] = n0
            if n0 is None or bad:
                failures[f"{s}/{t}"] = (n0, bad[:3])
    n0_text = " ".join(f"{pair}:{n0}" for pair, n0 in first_separating.items())
    report(
        "C07",
        not failures,
        f"all 28 pairs: both omega-differences nonempty from a first length "
        f"n0 <= 20 and every row n0..20 passes; common b-factors recur in "
        f"both and neither recurrent set is short-periodic at every "
        f"n=5..20 (horizon 1e6); n0 per pair: {n0_text}; "
        f"failures (n0, bad n)={failures or 0}",
    )


def test_c08_sturmian_shift_pairs_all_distal():
    rep = sturmian_no_LY_check(QuadSurd(0, Fraction(1, 4), 2), 50, 100_000, 20)
    ly = [r for r in rep.pairs if r.verdict == VERDICT_LY]
    missing_cert = [r for r in rep.pairs if r.K < 1]
    not_ok = [r for r in rep.pairs if r.verdict != VERDICT_DISTAL or not r.ok]
    ok = rep.passed and not ly and not missing_cert and not not_ok
    report(
        "C08",
        ok,
        f"{len(rep.pairs)} shift pairs, LY={len(ly)}, "
        f"uncertified={len(missing_cert)}, violations={len(not_ok)}, "
        f"max K={max(r.K for r in rep.pairs)}",
    )


def cut_separation(alpha_lim: QuadSurd, delta, horizon: int):
    """Exact lcp of the a-codings at alpha_lim + delta and alpha_lim, delta > 0.

    Symbol i+1 codes the point p = 1/8 + (i+1)*alpha.  While the arc
    (i+1)*delta is no longer than the cell [0, 1/4) it holds at most one
    cut, so the orbit points p and p + (i+1)*delta lie in different cells
    iff a cut c in {0, 1/4} lies on the arc between them:
    0 < mod1(c - p) <= (i+1)*delta.
    Returns the first such (i, c), or None below the horizon.
    """
    p = mod1(Fraction(1, 8) + alpha_lim)
    i = 0
    while i < horizon and (i + 1) * delta <= Fraction(1, 4):
        for c in (Fraction(0), Fraction(1, 4)):
            if 0 < mod1(c - p) <= (i + 1) * delta:
                return i, c
        p = mod1(p + alpha_lim)
        i += 1
    return None


def test_c09_sclosed_nested_family():
    codes = nested_limit_codes(10)
    rep = sclosed_limit_check(codes, horizon=100_000)
    alpha_lim = alpha_of(codes[-1])
    deltas = [alpha_of(c) - alpha_lim for c in codes[:-1]]
    one_side = all(d.sign() > 0 for d in deltas)
    witnesses = [cut_separation(alpha_lim, d, rep.horizon) for d in deltas]
    exact = [w[0] if w else None for w in witnesses]
    nondecreasing = all(a <= b for a, b in zip(rep.lcps, rep.lcps[1:]))
    plateaus = [
        f"k={k + 1},{k + 2}: i={w[0]} cut={w[1]}"
        for k, (w, v) in enumerate(zip(witnesses, witnesses[1:]))
        if w and v and w[0] == v[0]
    ]
    ok = (
        one_side
        and rep.lcps == exact
        and nondecreasing
        and rep.lcps[-1] > rep.lcps[0]
    )
    report(
        "C09",
        ok,
        f"approximants all above the limit ({one_side}); nested-family lcps "
        f"{rep.lcps} equal the exact first cut-separation indices {exact} "
        f"({rep.lcps == exact}), nondecreasing ({nondecreasing}), "
        f"{rep.lcps[0]} -> {rep.lcps[-1]}; plateaus explained by one orbit "
        f"index and cut: {'; '.join(plateaus) or '-'}",
    )


def test_c10_dendrite_exactness():
    rng = random.Random(20240817)
    model = family_model(horizon=10_000)
    full = full_binary_model()

    def random_accepted_address() -> str:
        while True:
            w = ""
            target = rng.randint(1, 20)
            while len(w) < target:
                options = [c for c in "01" if model.accepts(w + c)]
                if not options:
                    break
                w += rng.choice(options)
            if w:
                return w

    steps_bad = 0
    for _ in range(1000):
        w = random_accepted_address()
        t = Fraction(rng.randint(1, 7), 8)
        pt = Interior(w, t)
        if steps_to_root(pt) != len(w):
            steps_bad += 1
            continue
        for _ in range(len(w)):
            pt = apply_f(model, pt)
        if pt is not ROOT:
            steps_bad += 1

    end_ok = True
    for code in ("000", "111"):
        image = apply_f(model, End(x_stream(code)))
        if image.stream.word(1000) != shift(x_stream(code), 1).word(1000):
            end_ok = False

    lipschitz_bad = 0
    for _ in range(1000):
        w = random_accepted_address()
        if len(w) < 2:
            w += "0" if model.accepts(w + "0") else "1"
        t1 = Fraction(rng.randint(1, 15), 16)
        t2 = Fraction(rng.randint(1, 15), 16)
        u, v = Interior(w, t1), Interior(w, t2)
        d0 = path_dist(u, v).value
        d1 = path_dist(apply_f(full, u), apply_f(full, v)).value
        if d1 != 2 * d0:
            lipschitz_bad += 1

    ratio_bad = 0
    pairs = 0
    while pairs < 100:
        wu = "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
        wv = "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
        x, y = PeriodicStream(wu), PeriodicStream(wv)
        sd = dist(x, y, 64)
        if not sd.exact:
            continue
        pairs += 1
        if path_dist(End(x), End(y), cap=64).value != 4 * sd.value:
            ratio_bad += 1

    ok = steps_bad == 0 and end_ok and lipschitz_bad == 0 and ratio_bad == 0
    report(
        "C10",
        ok,
        f"steps_to_root exact on 1000 addresses (bad={steps_bad}); "
        f"f|E = shift to 1e3 ({end_ok}); Lipschitz x2 on 1000 same-arc "
        f"pairs (bad={lipschitz_bad}); End metric ratio 4 on 100 pairs "
        f"(bad={ratio_bad})",
    )


def test_c11_complexity_bound():
    over = {}
    exact = True
    for code in DEFAULT_CODES:
        profile = factor_count_profile(a_stream(code), 50, HORIZON)
        for n, p in enumerate(profile, start=1):
            if p > 2 * n:
                over[(code, n)] = p
            if p != 2 * n:
                exact = False
    report(
        "C11",
        not over,
        f"p(n) <= 2n for n=1..50 on all 8 a-streams at 1e6 "
        f"(equality everywhere: {exact}); violations={over or 0}",
    )


CLI_SUITE = [
    ["gen", "x:000", "12"],
    ["gen", "A:0/1+1/4*sqrt(2)", "5"],
    ["diamond", "000", "--factor-len", "8", "--horizon", "60000"],
    ["pair", "x:000", "a:000", "--horizon", "20000", "--resolution", "30"],
    ["pair", "b:000", "b:111", "--horizon", "5000", "--resolution", "10"],
    ["scan", "--codes-inline", "000,011,101", "--horizon", "5000",
     "--resolution", "10"],
    ["scan", "--codes-inline", "000,111", "--include-limits",
     "--horizon", "20000", "--resolution", "20"],
    ["omega", "000", "111", "--factor-len", "8..10", "--horizon", "100000"],
    ["sturmian-check", "--max-shift", "6", "--horizon", "10000",
     "--resolution", "20"],
    ["sturmian-check", "--max-shift", "6", "--format", "csv",
     "--horizon", "10000", "--resolution", "20"],
    ["sclosed-check", "--codes-inline", "1,01,001,0001", "--horizon", "10000"],
    ["dendrite", "iterate", "int:101:1/3", "--language", "full"],
    ["dendrite", "graph", "--language", "full", "--depth", "3"],
    ["dendrite", "check"],
]


def run_cli_suite() -> bytes:
    chunks = []
    for args in CLI_SUITE:
        p = subprocess.run(
            [sys.executable, "-m", "gehman.cli", *args],
            capture_output=True,
            timeout=600,
        )
        chunks.append(" ".join(args).encode())
        chunks.append(f" rc={p.returncode}\n".encode())
        chunks.append(p.stdout)
    return b"".join(chunks)


def test_c12_cli_determinism():
    first = run_cli_suite()
    second = run_cli_suite()
    report(
        "C12",
        first == second,
        f"two runs of the {len(CLI_SUITE)}-command CLI suite: "
        f"{len(first)} bytes, byte-identical={first == second}",
    )
