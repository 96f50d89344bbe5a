"""Batch command-line front end.

Commands: gen, diamond, pair, scan, omega, sturmian-check,
sclosed-check, dendrite {iterate,graph,check}.  Output is deterministic
byte-for-byte for a fixed invocation; exact quantities are emitted as
numerator/denominator or power-of-two exponents, never as decimals.

Exit codes: 0 success (including expected verdicts), 2 usage or input
errors, 3 verification failure.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import sys
from fractions import Fraction
from typing import Callable

import numpy as np

from gehman.chaoscan import (
    DistalityCertificate,
    certified_b_distality,
    classify_pair,
    lcp_series,
    nested_limit_codes,
    omega_scrambled_check,
    sclosed_limit_check,
    scrambled_scan,
    sturmian_no_LY_check,
    verdict_record,
)
from gehman.coding import (
    CutPointCollision,
    PeriodicStream,
    RotationCoding,
    SymbolStream,
    sturmian_stream,
)
from gehman.diamond import DiamondStream, omega_lower_check, omega_upper_check
from gehman.dendrite import (
    Branch,
    End,
    Interior,
    Root,
    ROOT,
    apply_f,
    emit_graph,
    f_invariance_check,
    family_model,
    full_binary_model,
    interior,
    no_isolated_points_check,
    steps_to_root,
)
from gehman.exactnum import parse_surd
from gehman.family import (
    DEFAULT_CODES,
    a_stream,
    b_stream,
    x_stream,
)


def _keep_freed_pages() -> None:
    # glibc hands each freed block above its mmap threshold (128 KiB at
    # first) back to the system, so calls that allocate and free arrays
    # of about 1 MiB (generation, pair compares) fault the same pages in
    # again and again.  Fixed mmap and trim thresholds keep such blocks
    # in the heap.  Other platforms and C libraries keep their defaults.
    if sys.platform.startswith("linux"):
        try:
            mallopt = ctypes.CDLL(None).mallopt
            mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
            mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
            mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD
        except (OSError, AttributeError):
            pass


_keep_freed_pages()

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3

DEFAULT_N = 1_000_000
DEFAULT_M = 30
QUICK_N = 100_000
QUICK_M = 20


class SpecError(ValueError):
    pass


# -- input parsing -----------------------------------------------------------


def _split_two(inner: str, context: str) -> tuple[str, str]:
    depth = 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return inner[:i], inner[i + 1:]
    raise SpecError(f"expected two comma-separated parts in {context!r}")


def parse_stream_spec(spec: str) -> SymbolStream:
    """Stream grammar: A:<surd> | pt:<surd>@<surd> | a:<code> | b:<code>
    | x:<code> | per:<word> | diamond(<spec>,<spec>)."""
    spec = spec.strip()
    if spec.startswith("diamond(") and spec.endswith(")"):
        left, right = _split_two(spec[len("diamond("):-1], spec)
        return DiamondStream(parse_stream_spec(left), parse_stream_spec(right))
    head, sep, rest = spec.partition(":")
    if not sep:
        raise SpecError(f"stream spec {spec!r} is missing ':'")
    if head == "A":
        return sturmian_stream(parse_surd(rest))
    if head == "pt":
        start, sep2, angle = rest.partition("@")
        if not sep2:
            raise SpecError(f"pt spec {rest!r} needs <start>@<angle>")
        return RotationCoding(parse_surd(start), parse_surd(angle))
    if head == "a":
        return a_stream(rest)
    if head == "b":
        return b_stream(rest)
    if head == "x":
        return x_stream(rest)
    if head == "per":
        return PeriodicStream(rest)
    raise SpecError(f"unknown stream kind {head!r} in {spec!r}")


def parse_point_literal(text: str):
    """Point grammar: root | branch:<w> | int:<w>:<t> | end:<streamspec>."""
    text = text.strip()
    if text == "root":
        return ROOT
    head, sep, rest = text.partition(":")
    if not sep:
        raise SpecError(f"point literal {text!r} is missing ':'")
    if head == "branch":
        return Branch(rest)
    if head == "int":
        w, sep2, t = rest.partition(":")
        if not sep2:
            raise SpecError("int literal needs <address>:<parameter>")
        return interior(w, Fraction(t))
    if head == "end":
        return End(parse_stream_spec(rest))
    raise SpecError(f"unknown point kind {head!r}")


def format_point(pt) -> str:
    if isinstance(pt, Root):
        return "root"
    if isinstance(pt, Branch):
        return f"branch:{pt.w}"
    if isinstance(pt, Interior):
        return f"int:{pt.w}:{pt.t}"
    if isinstance(pt, End):
        return f"end:{pt.stream.label}"
    raise TypeError(f"not a dendrite point: {pt!r}")


def _lines(path: str):
    """(line number, text) of each nonblank line of an ASCII file, with
    ``#`` comments dropped."""
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if line:
                yield lineno, line


def _config_tokens(path: str) -> list[str]:
    """A config file's ``key=value`` lines as the flags ``--key=value``.

    The keys are the long flag names.  A switch (``quick``,
    ``include-limits``) takes a yes/no value and becomes the bare flag or
    nothing.  One token per line keeps values such as ``-1/8`` whole.
    """
    tokens = []
    for lineno, line in _lines(path):
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise SpecError(f"{path}:{lineno}: expected key=value")
        if key == "config":
            raise SpecError(f"{path}:{lineno}: a config file cannot name another")
        if key not in _SWITCHES:
            tokens.append(f"--{key}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):
            tokens.append(f"--{key}")
        elif value.lower() not in ("0", "false", "no", "off", ""):
            raise SpecError(f"{path}:{lineno}: {key} takes yes or no, not {value!r}")
    return tokens


def _scan_params(args: argparse.Namespace) -> tuple[int, int]:
    """Horizon and resolution; one left at None takes --quick's default."""
    base_n, base_m = (QUICK_N, QUICK_M) if args.quick else (DEFAULT_N, DEFAULT_M)
    n = base_n if args.horizon is None else args.horizon
    m = getattr(args, "resolution", None)
    m = base_m if m is None else m
    if n < 1 or m < 1:
        raise SpecError("horizon and resolution must be positive")
    return n, m


def _codes(
    args: argparse.Namespace, default: Callable[[], list[str]] = lambda: list(DEFAULT_CODES)
) -> list[str]:
    """Codes from --codes-inline, else the --codes file, else default()."""
    if args.codes_inline is not None:
        names = [c.strip() for c in args.codes_inline.split(",") if c.strip()]
    elif args.codes:
        names = [line for _, line in _lines(args.codes)]
    else:
        names = default()
    if not names:
        raise SpecError("empty code list")
    return names


def _factor_len(args: argparse.Namespace) -> int:
    lengths = _factor_range(args.factor_len)
    if len(lengths) != 1:
        raise SpecError(f"{args.name} takes one factor length, not {args.factor_len!r}")
    return lengths[0]


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_line(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _factor_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo_i, hi_i = int(lo), int(hi)
        if lo_i < 1 or hi_i < lo_i:
            raise SpecError(f"bad factor length range {text!r}")
        return list(range(lo_i, hi_i + 1))
    n = int(text)
    if n < 1:
        raise SpecError("factor length must be positive")
    return [n]


# -- commands ----------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    n = args.count
    if n < 0:
        raise SpecError("symbol count must be nonnegative")
    stream = parse_stream_spec(args.spec)
    # one buffer for the word and its newline, so the text is not copied again
    text = np.empty(n + 1, dtype=np.uint8)
    np.add(stream.array(n), ord("0"), out=text[:n])
    text[n] = ord("\n")
    _emit(args, str(text, "ascii") if n else "")
    return EXIT_OK


def cmd_diamond(args: argparse.Namespace) -> int:
    code = args.code
    n = _factor_len(args)
    horizon, _ = _scan_params(args)
    a = a_stream(code)
    b = b_stream(code)
    x = x_stream(code)
    lower = omega_lower_check(a, b, n, horizon, source_horizon=args.source_horizon, subject=x)
    upper = omega_upper_check(a, b, n, horizon, source_horizon=args.source_horizon, subject=x)
    lines = []
    for name, rep in (("lower", lower), ("upper", upper)):
        lines.append(
            f"{name}: {rep.status}"
            + (f" violations={len(rep.violations)}" if rep.violations else "")
        )
        for w in rep.violations[:20]:
            lines.append(f"  {name}-violation: {w}")
    if upper.case_counts:
        counts = " ".join(f"{k}={v}" for k, v in sorted(upper.case_counts.items()))
        lines.append(f"cases: {counts}")
    _emit(args, "\n".join(lines) + "\n")
    if lower.status == "insufficient horizon" or upper.status == "insufficient horizon":
        return EXIT_USAGE
    return EXIT_OK if lower.passed and upper.passed else EXIT_VERIFY


def _certificates(points: list[SymbolStream]) -> dict[tuple[str, str], DistalityCertificate]:
    """The distality certificates of a point list, by label pair.

    A pair carries one when both points are x-points or both are
    b-points of the family, with different codes; a family point is
    labelled by its kind and code, e.g. ``b:011``.  The x-pair and the
    b-pair of one code pair share one certificate, whose subject is the
    b-pair.  Codes that name one base point raise ``ValueError``.
    """
    certify = functools.cache(certified_b_distality)  # shared within this call only
    certs = {}
    for i, p in enumerate(points):
        kind, _, s = p.label.partition(":")
        for q in points[i + 1:]:
            other, _, t = q.label.partition(":")
            if kind == other and kind in ("x", "b") and s != t:
                certs[p.label, q.label] = certify(s, t)
    return certs


def cmd_pair(args: argparse.Namespace) -> int:
    N, m = _scan_params(args)
    x = parse_stream_spec(args.x)
    y = parse_stream_spec(args.y)
    # the certificate is built for every format, so aliasing codes exit 2
    cert = _certificates([x, y]).get((x.label, y.label))
    if args.fmt == "csv":
        series = lcp_series(x, y, N, m + 1)
        rows = ["n,lcp,dist_exponent"]
        rows.extend(f"{n},{v},{v + 1}" for n, v in enumerate(series.tolist()))
        _emit(args, "\n".join(rows) + "\n")
        return EXIT_OK
    pv = classify_pair(x, y, N, m, certificate=cert)
    if args.fmt == "text":
        lines = [f"pair: {pv.x_label} | {pv.y_label}", f"verdict: {pv.verdict}"]
        lines.append(f"params: N={pv.N} m={pv.m}")
        if pv.proximal_evidence:
            lines.append(
                f"proximal: n={pv.proximal_evidence[0]} lcp={pv.proximal_evidence[1]}"
            )
        if pv.nonasymptotic_evidence:
            times = " ".join(str(t) for _, t in pv.nonasymptotic_evidence)
            lines.append(f"nonasymptotic: {times}")
        if pv.certificate:
            lines.append(f"certified_bound: 2^-{pv.certificate.K}")
        if pv.bound_check:
            lines.append(f"bound_ok: {pv.bound_check['ok']}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _json_line(verdict_record(pv)))
    return EXIT_OK


def _scan_points(codes: list[str], include_limits: bool):
    points = [x_stream(c) for c in codes]
    if include_limits:
        points.extend(a_stream(c) for c in codes)
        points.extend(b_stream(c) for c in codes)
    return points, _certificates(points)


def cmd_scan(args: argparse.Namespace) -> int:
    N, m = _scan_params(args)
    codes = _codes(args)
    if len(codes) < 2:
        raise SpecError("scan needs at least two codes")
    if len(set(codes)) != len(codes):
        raise SpecError("scan codes must be pairwise distinct")
    points, certs = _scan_points(codes, args.include_limits)
    report = scrambled_scan(points, N, m, certificates=certs)
    summary = {
        "summary": {
            "points": len(report.point_labels),
            "ly_edges": len(report.ly_edges),
            "max_clique": report.max_clique_size,
            "witness": report.max_clique_witness,
        }
    }
    if args.fmt == "text":
        lines = [
            f"{pv.x_label} | {pv.y_label}: {pv.verdict}" for pv in report.records
        ]
        lines.append(
            f"clique: {report.max_clique_size}"
            + (f" witness={','.join(report.max_clique_witness)}"
               if report.max_clique_witness else "")
        )
        _emit(args, "\n".join(lines) + "\n")
    else:
        chunks = [_json_line(verdict_record(pv)) for pv in report.records]
        chunks.append(_json_line(summary))
        _emit(args, "".join(chunks))
    return EXIT_OK if report.max_clique_size <= 2 else EXIT_VERIFY


def cmd_omega(args: argparse.Namespace) -> int:
    n_values = _factor_range(args.factor_len)
    horizon, _ = _scan_params(args)
    report = omega_scrambled_check(args.s, args.t, n_values, horizon=horizon)
    verdict = "pass" if report.passed else "fail"
    if args.fmt == "csv":
        rows = ["n,diff_st,diff_ts,intersection,z_total,z_missing,aperiodic_s,aperiodic_t,note"]
        for r in report.rows:
            rows.append(
                f"{r.n},{r.diff_st},{r.diff_ts},{r.intersection},{r.z_total},"
                f"{r.z_missing},{int(r.aperiodic_s)},{int(r.aperiodic_t)},{r.note}"
            )
        rows.append(f"# summary: {verdict}")
        _emit(args, "\n".join(rows) + "\n")
    else:
        lines = []
        for r in report.rows:
            line = (
                f"n={r.n} diff_st={r.diff_st} diff_ts={r.diff_ts}"
                f" intersection={r.intersection} z_missing={r.z_missing}"
                f" aperiodic={int(r.aperiodic_s)}/{int(r.aperiodic_t)}"
            )
            if r.note:
                line += f" note={r.note}"
            lines.append(line)
        lines.append(f"summary: {verdict}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_sturmian_check(args: argparse.Namespace) -> int:
    report = sturmian_no_LY_check(
        parse_surd(args.angle), args.max_shift, args.horizon, args.resolution
    )
    bad = [r for r in report.pairs if r.verdict != "distal-candidate" or not r.ok]
    if args.fmt == "csv":
        rows = ["i,j,K,max_lcp,verdict,ok"]
        rows.extend(
            f"{r.i},{r.j},{r.K},{r.max_lcp},{r.verdict},{int(r.ok)}"
            for r in report.pairs
        )
        _emit(args, "\n".join(rows) + "\n")
    else:
        lines = [
            f"alpha: {report.alpha}",
            f"pairs: {len(report.pairs)} (shifts 0..{report.max_shift}, N={report.N}, m={report.m})",
            f"max certified K: {max(r.K for r in report.pairs)}",
            f"violations: {len(bad)}",
        ]
        lines.extend(f"  bad pair ({r.i},{r.j}): {r.verdict} ok={r.ok}" for r in bad[:20])
        lines.append(f"summary: {'pass' if report.passed else 'fail'}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_sclosed_check(args: argparse.Namespace) -> int:
    codes = _codes(args, lambda: nested_limit_codes(args.depth))
    report = sclosed_limit_check(codes, horizon=args.horizon)
    lines = [f"limit: {report.codes[-1]}"]
    lines.extend(
        f"k={k + 1} code={c} lcp={v}"
        for k, (c, v) in enumerate(zip(report.codes[:-1], report.lcps))
    )
    lines.append(f"summary: {report.status}")
    _emit(args, "\n".join(lines) + "\n")
    if report.status == "not applicable":
        return EXIT_USAGE
    return EXIT_OK if report.passed else EXIT_VERIFY


def _dendrite_model(args: argparse.Namespace):
    if args.language == "full":
        return full_binary_model()
    return family_model(_codes(args), horizon=args.horizon)


def cmd_iterate(args: argparse.Namespace) -> int:
    if args.steps < 1:
        raise SpecError("steps must be >= 1")
    model = _dendrite_model(args)
    pt = parse_point_literal(args.point)
    if isinstance(pt, (Branch, Interior)) and not model.accepts(pt.w):
        raise SpecError(f"address rejected by the model: {pt.w!r}")
    lines = []
    if isinstance(pt, Root):
        lines.append("0: root")
    else:
        # branch/interior orbits end at the root on their own; only
        # endpoint orbits need the cap
        limit = args.steps if isinstance(pt, End) else steps_to_root(pt)
        for k in range(1, limit + 1):
            pt = apply_f(model, pt)
            lines.append(f"{k}: {format_point(pt)}")
            if isinstance(pt, Root):
                break
        if not isinstance(pt, Root):
            lines.append(f"steps_to_root: {steps_to_root(pt)}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_graph(args: argparse.Namespace) -> int:
    _emit(args, emit_graph(_dendrite_model(args), args.depth))
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    model = _dendrite_model(args)
    n = _factor_len(args)
    iso = no_isolated_points_check(model, n, args.ext)
    finv = f_invariance_check(model, n)
    lines = [
        f"accepted words of length {n}: {iso.accepted_count}",
        f"isolated: {len(iso.violators)}",
    ]
    lines.extend(f"  isolated: {w}" for w in iso.violators[:20])
    lines.append(f"f-invariance violations: {len(finv)}")
    lines.extend(f"  not invariant: {w}" for w in finv[:20])
    ok = iso.passed and not finv
    lines.append(f"summary: {'pass' if ok else 'fail'}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_VERIFY


# -- parser ------------------------------------------------------------------


# Shared options by dest: flags and argparse keywords.
_SHARED = {
    "horizon": ("--horizon", dict(type=int, help="scan horizon N")),
    "resolution": ("--resolution", dict(type=int, help="lcp resolution m")),
    "factor_len": ("--factor-len", dict(help="factor length n, or a range lo..hi")),
    "codes": ("--codes", dict(help="file with one code per line")),
    "codes_inline": ("--codes-inline", dict(help="comma-separated codes")),
    "fmt": ("--format", dict()),
    "quick": ("--quick", dict(action="store_true",
                              help="quick-mode defaults (N=1e5, m=20)")),
    "include_limits": ("--include-limits", dict(
        action="store_true", help="add a- and b-streams to the point set")),
    "out": ("--out", dict(help="write output to this file")),
    "config": ("--config", dict(help="key=value config file")),
}
# Config keys that take yes/no and stand for a bare flag.
_SWITCHES = {flag[2:] for flag, kw in _SHARED.values() if kw.get("action") == "store_true"}

# The shared options each command reads, besides --out and --config, with
# their defaults; a --format entry lists its choices, default first.
# argparse rejects the others.  A horizon or resolution of None is set by
# --quick (_scan_params).  sturmian-check keeps --quick, which changes
# nothing there: its defaults already are the quick values.
_READS = {
    "gen": {},
    "diamond": {"horizon": None, "quick": False, "factor_len": "20"},
    "pair": {"horizon": None, "resolution": None, "quick": False,
             "fmt": ("jsonl", "csv", "text")},
    "scan": {"horizon": None, "resolution": None, "quick": False,
             "fmt": ("jsonl", "text"), "codes": None, "codes_inline": None,
             "include_limits": False},
    "omega": {"horizon": None, "quick": False, "factor_len": "5..20",
              "fmt": ("csv", "text")},
    "sturmian-check": {"horizon": QUICK_N, "resolution": QUICK_M, "quick": False,
                       "fmt": ("text", "csv")},
    "sclosed-check": {"horizon": QUICK_N, "codes": None, "codes_inline": None},
    "dendrite iterate": {"horizon": 10_000, "codes": None, "codes_inline": None},
    "dendrite graph": {"horizon": 10_000, "codes": None, "codes_inline": None,
                       "fmt": ("dot",)},
    "dendrite check": {"horizon": 10_000, "codes": None, "codes_inline": None,
                       "factor_len": "5"},
}


def _command(sub, name: str, run: Callable[[argparse.Namespace], int],
             **kwargs) -> argparse.ArgumentParser:
    sp = sub.add_parser(name.rpartition(" ")[2], allow_abbrev=False, **kwargs)
    sp.set_defaults(run=run, name=name)
    for dest, default in (*_READS[name].items(), ("out", None), ("config", None)):
        flag, opts = _SHARED[dest]
        if dest == "fmt":
            opts = dict(choices=default)
            default = default[0]
        sp.add_argument(flag, dest=dest, default=default, **opts)
    return sp


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing does not change the parser, and
    # building it costs far more than a parse.
    # Flags and config keys are spelled in full: a prefix is not a flag.
    p = argparse.ArgumentParser(prog="gehman", description=__doc__.split("\n")[0],
                                allow_abbrev=False)
    sub = p.add_subparsers(dest="command", required=True)

    sp = _command(sub, "gen", cmd_gen, help="print stream symbols")
    sp.add_argument("spec", help="stream spec, e.g. x:000 or A:1/4*sqrt(2)")
    sp.add_argument("count", type=int, help="number of symbols")

    sp = _command(sub, "diamond", cmd_diamond,
                  help="omega-limit inclusion checks for one code")
    sp.add_argument("code", help="family code, e.g. 000")
    sp.add_argument("--source-horizon", type=int, default=10_000)

    sp = _command(sub, "pair", cmd_pair, help="classify one pair")
    sp.add_argument("x", help="stream spec")
    sp.add_argument("y", help="stream spec")

    _command(sub, "scan", cmd_scan, help="scrambled-set scan over family points")

    sp = _command(sub, "omega", cmd_omega,
                  help="omega-scrambling surrogates for a code pair")
    sp.add_argument("s", help="first code")
    sp.add_argument("t", help="second code")

    sp = _command(sub, "sturmian-check", cmd_sturmian_check,
                  help="no-Li-Yorke certificates for Sturmian shifts")
    sp.add_argument("--angle", default="1/4*sqrt(2)", help="rotation angle surd")
    sp.add_argument("--max-shift", type=int, default=50)

    sp = _command(sub, "sclosed-check", cmd_sclosed_check,
                  help="limit coherence along the nested code family")
    sp.add_argument("--depth", type=int, default=10)

    # no shared options here: the subcommand's defaults would overwrite them
    sp = sub.add_parser("dendrite", allow_abbrev=False, help="dendrite tools")
    dsub = sp.add_subparsers(dest="dendrite_cmd", required=True)
    dp = _command(dsub, "dendrite iterate", cmd_iterate, help="orbit of a point literal")
    dp.add_argument("point", help="root | branch:<w> | int:<w>:<t> | end:<spec>")
    dp.add_argument("--steps", type=int, default=10, help="cap for endpoint orbits")
    dp.add_argument("--language", choices=["family", "full"], default="family")
    dp = _command(dsub, "dendrite graph", cmd_graph, help="emit DOT tree")
    dp.add_argument("--depth", type=int, default=6)
    dp.add_argument("--language", choices=["family", "full"], default="family")
    dp = _command(dsub, "dendrite check", cmd_check,
                  help="no-isolated-points and f-invariance checks")
    dp.add_argument("--ext", type=int, default=10)
    dp.add_argument("--language", choices=["family", "full"], default="family")
    return p


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's flags go right after the command, so the command
            # line's own flags come later and win
            at = len(args.name.split())
            args = parser.parse_args(
                [*argv[:at], *_config_tokens(args.config), *argv[at:]]
            )
        return args.run(args)
    except SystemExit as e:
        return int(e.code or 0)
    except (CutPointCollision, ValueError, TypeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
