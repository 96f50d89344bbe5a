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
import functools
import json
import sys
from fractions import Fraction
from typing import Callable

from gehman.chaoscan import (
    VERDICT_LY,
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
from gehman.diamond import diamond, omega_lower_check, omega_upper_check
from gehman.dendrite import (
    Branch,
    End,
    Interior,
    Root,
    ROOT,
    apply_f,
    contains_arc,
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
        return diamond(parse_stream_spec(left), parse_stream_spec(right))
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


def _read_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise SpecError(f"{path}:{lineno}: expected key=value")
            cfg[key.strip()] = value.strip()
    return cfg


def _read_codes_file(path: str) -> list[str]:
    out = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                out.append(line)
    return out


class _Run:
    """Resolved options for one invocation: flag > config file > default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = _read_config(args.config) if getattr(args, "config", None) else {}

    def opt(self, name: str, default, cast=None):
        val = getattr(self.args, name, None)
        if val is None:
            raw = self.cfg.get(name.replace("_", "-"))
            if raw is not None:
                val = cast(raw) if cast else raw
        if val is None:
            val = default
        return val

    def flag(self, name: str) -> bool:
        if getattr(self.args, name, False):
            return True
        raw = self.cfg.get(name.replace("_", "-"), "")
        return raw.lower() in ("1", "true", "yes", "on")

    def scan_params(self) -> tuple[int, int]:
        if self.flag("quick"):
            base_n, base_m = QUICK_N, QUICK_M
        else:
            base_n, base_m = DEFAULT_N, DEFAULT_M
        n = self.opt("horizon", base_n, int)
        m = self.opt("resolution", base_m, int)
        if n < 1 or m < 1:
            raise SpecError("horizon and resolution must be positive")
        return n, m

    def codes(
        self, default: Callable[[], list[str]] = lambda: list(DEFAULT_CODES)
    ) -> list[str]:
        """Codes from --codes-inline, else the --codes file, else default()."""
        inline = self.opt("codes_inline", None)
        if inline is not None:
            names = [c.strip() for c in inline.split(",") if c.strip()]
        else:
            path = self.opt("codes", None)
            names = _read_codes_file(path) if path else default()
        if not names:
            raise SpecError("empty code list")
        return names

    def factor_len(self, default: int) -> int:
        text = self.opt("factor_len", str(default))
        lengths = _factor_range(text)
        if len(lengths) != 1:
            raise SpecError(f"{self.args.command} takes one factor length, not {text!r}")
        return lengths[0]

    def fmt(self, default: str, allowed: tuple[str, ...]) -> str:
        f = self.opt("fmt", default)
        if f not in allowed:
            raise SpecError(
                f"format {f!r} not supported here (allowed: {', '.join(allowed)})"
            )
        return f

    def emit(self, text: str) -> None:
        out = self.opt("out", None)
        if out:
            with open(out, "w", encoding="ascii", newline="") as fh:
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


def cmd_gen(run: _Run) -> int:
    n = run.args.count
    if n < 0:
        raise SpecError("symbol count must be nonnegative")
    stream = parse_stream_spec(run.args.spec)
    run.emit(stream.word(n) + "\n" if n else "")
    return EXIT_OK


def cmd_diamond(run: _Run) -> int:
    code = run.args.code
    n = run.factor_len(20)
    horizon, _ = run.scan_params()
    source_horizon = run.opt("source_horizon", 10_000, int)
    a = a_stream(code)
    b = b_stream(code)
    x = x_stream(code)
    lower = omega_lower_check(a, b, n, horizon, source_horizon=source_horizon, subject=x)
    upper = omega_upper_check(a, b, n, horizon, source_horizon=source_horizon, subject=x)
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
    run.emit("\n".join(lines) + "\n")
    if lower.status == "insufficient horizon" or upper.status == "insufficient horizon":
        return EXIT_USAGE
    return EXIT_OK if lower.passed and upper.passed else EXIT_VERIFY


def _auto_certificate(x_spec: str, y_spec: str):
    # certified bounds exist for family points riding on the b-side offset
    kinds = []
    for spec in (x_spec.strip(), y_spec.strip()):
        head, sep, rest = spec.partition(":")
        if sep and head in ("x", "b"):
            kinds.append(rest)
        else:
            return None
    if kinds[0] == kinds[1]:
        return None
    return certified_b_distality(kinds[0], kinds[1])


def cmd_pair(run: _Run) -> int:
    N, m = run.scan_params()
    fmt = run.fmt("jsonl", ("jsonl", "csv", "text"))
    x = parse_stream_spec(run.args.x)
    y = parse_stream_spec(run.args.y)
    # the certificate is built for every format, so aliasing codes exit 2
    cert = _auto_certificate(run.args.x, run.args.y)
    if fmt == "csv":
        series = lcp_series(x, y, N, m + 1)
        rows = ["n,lcp,dist_exponent"]
        rows.extend(f"{n},{v},{v + 1}" for n, v in enumerate(series.tolist()))
        run.emit("\n".join(rows) + "\n")
        return EXIT_OK
    pv = classify_pair(x, y, N, m, certificate=cert)
    if fmt == "text":
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
        run.emit("\n".join(lines) + "\n")
    else:
        run.emit(_json_line(verdict_record(pv)))
    return EXIT_OK


def _scan_points(codes: list[str], include_limits: bool):
    points = [x_stream(c) for c in codes]
    if include_limits:
        points.extend(a_stream(c) for c in codes)
        points.extend(b_stream(c) for c in codes)
    certs = {}
    for i, s in enumerate(codes):
        for t in codes[i + 1:]:
            # one certificate bounds both pairs: its subject is the b-pair
            cert = certified_b_distality(s, t)
            certs[(f"x:{s}", f"x:{t}")] = cert
            if include_limits:
                certs[(f"b:{s}", f"b:{t}")] = cert
    return points, certs


def cmd_scan(run: _Run) -> int:
    N, m = run.scan_params()
    fmt = run.fmt("jsonl", ("jsonl", "text"))
    codes = run.codes()
    if len(codes) < 2:
        raise SpecError("scan needs at least two codes")
    if len(set(codes)) != len(codes):
        raise SpecError("scan codes must be pairwise distinct")
    points, certs = _scan_points(codes, run.flag("include_limits"))
    report = scrambled_scan(points, N, m, certificates=certs)
    summary = {
        "summary": {
            "points": len(report.point_labels),
            "ly_edges": len(report.ly_edges),
            "max_clique": report.max_clique_size,
            "witness": report.max_clique_witness,
        }
    }
    if fmt == "text":
        lines = [
            f"{pv.x_label} | {pv.y_label}: {pv.verdict}" for pv in report.records
        ]
        lines.append(
            f"clique: {report.max_clique_size}"
            + (f" witness={','.join(report.max_clique_witness)}"
               if report.max_clique_witness else "")
        )
        run.emit("\n".join(lines) + "\n")
    else:
        chunks = [_json_line(verdict_record(pv)) for pv in report.records]
        chunks.append(_json_line(summary))
        run.emit("".join(chunks))
    return EXIT_OK if report.max_clique_size <= 2 else EXIT_VERIFY


def cmd_omega(run: _Run) -> int:
    fmt = run.fmt("csv", ("csv", "text"))
    n_values = _factor_range(run.opt("factor_len", "5..20", str))
    horizon, _ = run.scan_params()
    report = omega_scrambled_check(run.args.s, run.args.t, n_values, horizon=horizon)
    verdict = "pass" if report.passed else "fail"
    if fmt == "csv":
        rows = ["n,diff_st,diff_ts,intersection,z_total,z_missing,aperiodic_s,aperiodic_t,note"]
        for r in report.rows:
            rows.append(
                f"{r.n},{r.diff_st},{r.diff_ts},{r.intersection},{r.z_total},"
                f"{r.z_missing},{int(r.aperiodic_s)},{int(r.aperiodic_t)},{r.note}"
            )
        rows.append(f"# summary: {verdict}")
        run.emit("\n".join(rows) + "\n")
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
        run.emit("\n".join(lines) + "\n")
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_sturmian_check(run: _Run) -> int:
    fmt = run.fmt("text", ("text", "csv"))
    angle = parse_surd(run.opt("angle", "1/4*sqrt(2)", str))
    max_shift = run.opt("max_shift", 50, int)
    N = run.opt("horizon", QUICK_N, int)
    m = run.opt("resolution", QUICK_M, int)
    report = sturmian_no_LY_check(angle, max_shift, N, m)
    bad = [r for r in report.pairs if r.verdict != "distal-candidate" or not r.ok]
    if fmt == "csv":
        rows = ["i,j,K,max_lcp,verdict,ok"]
        rows.extend(
            f"{r.i},{r.j},{r.K},{r.max_lcp},{r.verdict},{int(r.ok)}"
            for r in report.pairs
        )
        run.emit("\n".join(rows) + "\n")
    else:
        lines = [
            f"alpha: {report.alpha}",
            f"pairs: {len(report.pairs)} (shifts 0..{report.max_shift}, N={report.N}, m={report.m})",
            f"max certified K: {max(r.K for r in report.pairs)}",
            f"violations: {len(bad)}",
        ]
        lines.extend(f"  bad pair ({r.i},{r.j}): {r.verdict} ok={r.ok}" for r in bad[:20])
        lines.append(f"summary: {'pass' if report.passed else 'fail'}")
        run.emit("\n".join(lines) + "\n")
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_sclosed_check(run: _Run) -> int:
    depth = run.opt("depth", 10, int)
    horizon = run.opt("horizon", QUICK_N, int)
    codes = run.codes(lambda: nested_limit_codes(depth))
    report = sclosed_limit_check(codes, horizon=horizon)
    lines = [f"limit: {report.codes[-1]}"]
    lines.extend(
        f"k={k + 1} code={c} lcp={v}"
        for k, (c, v) in enumerate(zip(report.codes[:-1], report.lcps))
    )
    lines.append(f"summary: {report.status}")
    run.emit("\n".join(lines) + "\n")
    if report.status == "not applicable":
        return EXIT_USAGE
    return EXIT_OK if report.passed else EXIT_VERIFY


def _dendrite_model(run: _Run):
    language = run.opt("language", "family", str)
    if language == "full":
        return full_binary_model()
    if language == "family":
        horizon = run.opt("horizon", 10_000, int)
        return family_model(run.codes(), horizon=horizon)
    raise SpecError(f"unknown language {language!r} (use family or full)")


def cmd_dendrite(run: _Run) -> int:
    sub = run.args.dendrite_cmd
    model = _dendrite_model(run)
    if sub == "iterate":
        pt = parse_point_literal(run.args.point)
        if isinstance(pt, (Branch, Interior)) and not contains_arc(model, pt.w):
            raise SpecError(f"address rejected by the model: {pt.w!r}")
        steps_cap = run.opt("steps", 10, int)
        lines = []
        if isinstance(pt, Root):
            lines.append("0: root")
        else:
            # branch/interior orbits end at the root on their own; only
            # endpoint orbits need the cap
            limit = max(steps_cap, 1) if isinstance(pt, End) else steps_to_root(pt)
            for k in range(1, limit + 1):
                pt = apply_f(model, pt)
                lines.append(f"{k}: {format_point(pt)}")
                if isinstance(pt, Root):
                    break
            if not isinstance(pt, Root):
                lines.append(f"steps_to_root: {steps_to_root(pt)}")
        run.emit("\n".join(lines) + "\n")
        return EXIT_OK
    if sub == "graph":
        run.fmt("dot", ("dot",))
        depth = run.opt("depth", 6, int)
        run.emit(emit_graph(model, depth))
        return EXIT_OK
    if sub == "check":
        n = run.factor_len(5)
        ext = run.opt("ext", 10, int)
        iso = no_isolated_points_check(model, n, ext)
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
        run.emit("\n".join(lines) + "\n")
        return EXIT_OK if ok else EXIT_VERIFY
    raise SpecError(f"unknown dendrite subcommand {sub!r}")


# -- parser ------------------------------------------------------------------


# Shared options by dest: flags and argparse keywords.
_SHARED = {
    "horizon": ("--horizon", dict(type=int, help="scan horizon N")),
    "resolution": ("--resolution", dict(type=int, help="lcp resolution m")),
    "factor_len": ("--factor-len", dict(help="factor length n, or a range lo..hi")),
    "codes": ("--codes", dict(help="file with one code per line")),
    "codes_inline": ("--codes-inline", dict(help="comma-separated codes")),
    "fmt": ("--format", dict(choices=["text", "jsonl", "csv", "dot"])),
    "quick": ("--quick", dict(action="store_true",
                              help="quick-mode defaults (N=1e5, m=20)")),
    "include_limits": ("--include-limits", dict(
        action="store_true", help="add a- and b-streams to the point set")),
    "out": ("--out", dict(help="write output to this file")),
    "config": ("--config", dict(help="key=value config file")),
}

# The shared options each command reads (the dendrite subcommands by
# their own names), besides --out and --config; argparse rejects the
# others.  sturmian-check keeps --quick, which changes nothing there:
# its defaults already are the quick values.
_READS = {
    "gen": (),
    "diamond": ("horizon", "quick", "factor_len"),
    "pair": ("horizon", "resolution", "quick", "fmt"),
    "scan": ("horizon", "resolution", "quick", "fmt", "codes", "codes_inline",
             "include_limits"),
    "omega": ("horizon", "quick", "factor_len", "fmt"),
    "sturmian-check": ("horizon", "resolution", "quick", "fmt"),
    "sclosed-check": ("horizon", "codes", "codes_inline"),
    "iterate": ("horizon", "codes", "codes_inline"),
    "graph": ("horizon", "codes", "codes_inline", "fmt"),
    "check": ("horizon", "codes", "codes_inline", "factor_len"),
}


def _command(sub, name: str, **kwargs) -> argparse.ArgumentParser:
    sp = sub.add_parser(name, **kwargs)
    for dest in (*_READS[name], "out", "config"):
        flag, opts = _SHARED[dest]
        sp.add_argument(flag, dest=dest, **opts)
    return sp


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing does not change the parser, and
    # building it costs far more than a parse.
    p = argparse.ArgumentParser(prog="gehman", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = _command(sub, "gen", help="print stream symbols")
    sp.add_argument("spec", help="stream spec, e.g. x:000 or A:1/4*sqrt(2)")
    sp.add_argument("count", type=int, help="number of symbols")

    sp = _command(sub, "diamond", help="omega-limit inclusion checks for one code")
    sp.add_argument("code", help="family code, e.g. 000")
    sp.add_argument("--source-horizon", dest="source_horizon", type=int)

    sp = _command(sub, "pair", help="classify one pair")
    sp.add_argument("x", help="stream spec")
    sp.add_argument("y", help="stream spec")

    _command(sub, "scan", help="scrambled-set scan over family points")

    sp = _command(sub, "omega", help="omega-scrambling surrogates for a code pair")
    sp.add_argument("s", help="first code")
    sp.add_argument("t", help="second code")

    sp = _command(sub, "sturmian-check",
                  help="no-Li-Yorke certificates for Sturmian shifts")
    sp.add_argument("--angle", help="rotation angle surd")
    sp.add_argument("--max-shift", dest="max_shift", type=int)

    sp = _command(sub, "sclosed-check",
                  help="limit coherence along the nested code family")
    sp.add_argument("--depth", type=int)

    # no shared options here: the subcommand's defaults would overwrite them
    sp = sub.add_parser("dendrite", help="dendrite tools")
    dsub = sp.add_subparsers(dest="dendrite_cmd", required=True)
    dp = _command(dsub, "iterate", help="orbit of a point literal")
    dp.add_argument("point", help="root | branch:<w> | int:<w>:<t> | end:<spec>")
    dp.add_argument("--steps", type=int, help="cap for endpoint orbits")
    dp.add_argument("--language", choices=["family", "full"])
    dp = _command(dsub, "graph", help="emit DOT tree")
    dp.add_argument("--depth", type=int)
    dp.add_argument("--language", choices=["family", "full"])
    dp = _command(dsub, "check", help="no-isolated-points and f-invariance checks")
    dp.add_argument("--ext", type=int)
    dp.add_argument("--language", choices=["family", "full"])
    return p


_COMMANDS = {
    "gen": cmd_gen,
    "diamond": cmd_diamond,
    "pair": cmd_pair,
    "scan": cmd_scan,
    "omega": cmd_omega,
    "sturmian-check": cmd_sturmian_check,
    "sclosed-check": cmd_sclosed_check,
    "dendrite": cmd_dendrite,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        run = _Run(args)
        return _COMMANDS[args.command](run)
    except CutPointCollision as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, TypeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
