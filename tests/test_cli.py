"""End-to-end CLI tests via subprocess: grammar, formats, exit codes."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from math import isqrt

import pytest

import oracle

CLI = [sys.executable, "-m", "gehman.cli"]


def run_cli(*args):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=600
    )


class TestGen:
    def test_sturmian_example(self):
        p = run_cli("gen", "A:0/1+1/4*sqrt(2)", "5")
        assert p.returncode == 0
        assert p.stdout == "10110\n"

    def test_family_point(self):
        p = run_cli("gen", "x:000", "12")
        assert p.returncode == 0
        assert p.stdout == "101101111011\n"

    def test_periodic_and_diamond_specs(self):
        assert run_cli("gen", "per:01", "6").stdout == "010101\n"
        p = run_cli("gen", "diamond(per:0,per:1)", "12")
        assert p.stdout == "010011000111\n"

    def test_zero_count_is_empty_success(self):
        p = run_cli("gen", "x:000", "0")
        assert p.returncode == 0
        assert p.stdout == ""

    def test_bad_spec_is_usage_error(self):
        p = run_cli("gen", "q:000", "5")
        assert p.returncode == 2
        assert p.stderr.startswith("error:")

    def test_negative_count_is_usage_error(self):
        assert run_cli("gen", "x:000", "--", "-3").returncode == 2

    def test_collision_is_surfaced(self):
        p = run_cli("gen", "pt:1/4@1/8*sqrt(3)", "3")
        assert p.returncode == 2
        assert "collision" in p.stderr

    def test_large_coefficients_match_the_oracle(self):
        # An absolute 1e-7 float guard decided symbols 54262, 56701 and
        # 59140 of this coding wrongly; the certified screen does not.
        p = run_cli("gen", "pt:1/8@556712927-393655486*sqrt(2)", "60000")
        assert p.returncode == 0
        word = p.stdout.rstrip("\n")
        oc = oracle.IntervalCoder(Fraction(1, 8), 0, 556712927, -393655486, 2)
        for i in (54262, 56701, 59140):
            assert word[i - 1] == str(oc.symbol(i - 1))
        assert word[54000:] == "".join(str(oc.symbol(k)) for k in range(54000, 60000))

    def test_huge_surd_coefficients_match_the_oracle(self):
        # B = 10^30: the angle's integers are ~100 bits, and each chunk
        # is still reduced exactly to 64-bit fixed point once
        b = 10**30
        a = isqrt(2 * b * b)
        p = run_cli("gen", f"pt:1/8@{a}-{b}*sqrt(2)", "100000")
        assert p.returncode == 0
        word = p.stdout.rstrip("\n")
        assert len(word) == 100000
        oc = oracle.IntervalCoder(Fraction(1, 8), 0, a, -b, 2)
        for i in [*range(0, 100000, 997), *range(98000, 100000)]:
            assert word[i] == str(oc.symbol(i))

    def test_huge_rational_part_stays_exact(self):
        # den = 10^400: each chunk is reduced to 64-bit fixed point exactly
        p = run_cli("gen", "pt:1/8@1/1" + "0" * 400 + "+1*sqrt(2)", "20")
        assert p.returncode == 0
        assert p.stdout == "01111010111101111011\n"


class TestDiamondCmd:
    def test_inclusions_small(self):
        p = run_cli("diamond", "000", "--factor-len", "8", "--horizon", "60000")
        assert p.returncode == 0
        lines = p.stdout.splitlines()
        assert lines[0] == "lower: pass"
        assert lines[1] == "upper: pass"
        assert lines[2] == "cases: a-side=16 b-side=11 crossover-ab=27 crossover-ba=11"

    def test_insufficient_horizon_exit(self):
        p = run_cli(
            "diamond", "000", "--factor-len", "30",
            "--horizon", "1000", "--source-horizon", "20",
        )
        assert p.returncode == 2
        assert "insufficient horizon" in p.stdout

    def test_factor_len_range_rejected(self):
        p = run_cli("diamond", "000", "--factor-len", "5..20")
        assert p.returncode == 2
        assert p.stderr == "error: diamond takes one factor length, not '5..20'\n"

    def test_starved_tail_fails_loudly(self):
        # A well-defined but undersampled scan is a fail, not an
        # insufficiency: the tail holds 30-words, just not enough of them.
        p = run_cli("diamond", "000", "--factor-len", "30", "--horizon", "1000")
        assert p.returncode == 3
        assert p.stdout.splitlines()[0].startswith("lower: fail violations=")


class TestPairCmd:
    def test_jsonl_family_pair(self):
        p = run_cli("pair", "x:000", "a:000", "--horizon", "20000", "--resolution", "30")
        assert p.returncode == 0
        rec = json.loads(p.stdout)
        assert rec["verdict"] == "LY-candidate"
        assert rec["proximal"] == {"n": 1992, "lcp": 31}
        assert rec["certified_bound"] is None
        assert list(rec) == [
            "x",
            "y",
            "verdict",
            "N",
            "m",
            "proximal",
            "nonasymptotic",
            "certified_bound",
            "max_lcp",
        ]

    def test_jsonl_certified_b_pair(self):
        p = run_cli("pair", "b:000", "b:111", "--horizon", "5000", "--resolution", "10")
        rec = json.loads(p.stdout)
        assert rec["verdict"] == "distal-candidate"
        assert rec["certified_bound"] == {"K": 8, "delta_num": 13, "delta_den": 81}
        assert rec["bound_check"]["ok"] is True

    def test_csv_series(self):
        p = run_cli(
            "pair", "per:01", "per:00", "--format", "csv",
            "--horizon", "4", "--resolution", "8",
        )
        assert p.stdout.splitlines() == [
            "n,lcp,dist_exponent",
            "0,1,2",
            "1,0,1",
            "2,1,2",
            "3,0,1",
            "4,1,2",
        ]

    def test_csv_certified_b_pair(self):
        # csv prints the series alone; the certificate changes no byte
        p = run_cli(
            "pair", "b:000", "b:111", "--format", "csv",
            "--horizon", "2000", "--resolution", "10",
        )
        assert p.returncode == 0
        assert p.stdout.splitlines()[:4] == [
            "n,lcp,dist_exponent", "0,0,1", "1,3,4", "2,2,3",
        ]
        assert hashlib.sha256(p.stdout.encode()).hexdigest() == (
            "d0d700cace29028367a120b9eb4d6ce2516a4a57b330952ed9d2cdcd904024ad"
        )

    def test_csv_aliasing_codes_rejected(self):
        p = run_cli("pair", "b:010", "b:0100", "--format", "csv", "--horizon", "5")
        assert p.returncode == 2
        assert p.stderr.startswith("error: codes 010 and 0100 alias")
        assert p.stdout == ""

    def test_no_checkpoint_is_not_ly(self):
        # N = 10 < m = 30 leaves no checkpoint, so no non-asymptotic
        # evidence: two identical streams are asymptotic, not LY
        p = run_cli("pair", "b:000", "b:000", "--horizon", "10")
        assert p.returncode == 0
        rec = json.loads(p.stdout)
        assert rec["verdict"] == "asymptotic-candidate"
        assert rec["nonasymptotic"] is None
        assert rec["proximal"] == {"n": 0, "lcp": 31}

    def test_text_format(self):
        p = run_cli(
            "pair", "per:01", "per:00", "--format", "text",
            "--horizon", "64", "--resolution", "4",
        )
        assert p.returncode == 0
        assert "verdict: distal-candidate" in p.stdout.splitlines()


def run_main(*args):
    """Exit code and stdout of one in-process CLI call."""
    from gehman.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(args))
    return code, out.getvalue()


_RULE_ARGS = ("--horizon", "100000", "--resolution", "20")
_SQRT2_4 = "A:1/4*sqrt(2)"
# (x, y, certified): a pair carries a distality certificate exactly when
# both points are x-points or both are b-points, with different codes.
_CERTIFICATE_RULE = [
    ("x:000", "x:011", True), ("x:011", "x:000", True),
    ("b:000", "b:011", True), ("b:011", "b:000", True),
    ("x:000", "x:000", False), ("b:011", "b:011", False),
    ("x:000", "b:011", False), ("b:011", "x:000", False),
    ("x:011", "b:000", False), ("b:000", "x:011", False),
    ("x:000", "b:0000", False), ("b:0000", "x:000", False),
    ("a:000", "a:011", False), ("a:000", "a:000", False),
    ("a:000", "b:011", False), ("b:011", "a:000", False),
    ("a:011", "x:000", False), ("x:000", "a:011", False),
    ("per:01", "per:011", False), ("per:01", "per:01", False),
    ("per:01", "b:011", False), ("x:000", "per:01", False),
    (_SQRT2_4, "A:1/8*sqrt(2)", False), (_SQRT2_4, _SQRT2_4, False),
    (_SQRT2_4, "x:011", False), ("b:000", _SQRT2_4, False),
]
# the fields of a pair's record that do not depend on its order
_SYMMETRIC_FIELDS = ("verdict", "N", "m", "proximal", "nonasymptotic",
                     "certified_bound", "max_lcp")


class TestCertificateRule:
    @pytest.fixture(scope="class")
    def scan_records(self):
        code, out = run_main(
            "scan", "--include-limits", "--codes-inline", "000,011", *_RULE_ARGS
        )
        assert code in (0, 3)
        records = [json.loads(line) for line in out.splitlines()[:-1]]
        return {(r["x"], r["y"]): r for r in records}

    @pytest.mark.parametrize("x,y,certified", _CERTIFICATE_RULE)
    def test_pair(self, x, y, certified, scan_records):
        code, out = run_main("pair", x, y, *_RULE_ARGS)
        assert code == 0
        rec = json.loads(out)
        assert (rec["certified_bound"] is not None) == certified
        assert ("bound_check" in rec) == certified
        if (x, y) in scan_records:
            assert rec == scan_records[x, y]
        if (y, x) in scan_records:
            want = scan_records[y, x]
            assert {k: rec[k] for k in _SYMMETRIC_FIELDS} == {
                k: want[k] for k in _SYMMETRIC_FIELDS
            }

    def test_scan_shares_one_certificate_per_code_pair(self):
        from gehman.cli import _scan_points

        _, certs = _scan_points(["000", "011"], include_limits=True)
        assert sorted(certs) == [("b:000", "b:011"), ("x:000", "x:011")]
        assert certs["x:000", "x:011"] is certs["b:000", "b:011"]

    def test_scan_covers_every_x_b_pair(self, scan_records):
        family = [f"{k}:{c}" for k in "xb" for c in ("000", "011")]
        for i, p in enumerate(family):
            for q in family[i + 1:]:
                assert (p, q) in scan_records or (q, p) in scan_records


class TestScanCmd:
    def test_two_codes_no_edges(self):
        p = run_cli(
            "scan", "--codes-inline", "000,111",
            "--horizon", "20000", "--resolution", "20",
        )
        assert p.returncode == 0
        lines = p.stdout.strip().splitlines()
        assert len(lines) == 2
        summary = json.loads(lines[-1])["summary"]
        assert summary == {
            "points": 2,
            "ly_edges": 0,
            "max_clique": 0,
            "witness": [],
        }
        rec = json.loads(lines[0])
        assert rec["verdict"] == "distal-candidate"
        assert rec["certified_bound"]["K"] == 8

    def test_include_limits_clique_two(self):
        p = run_cli(
            "scan", "--codes-inline", "000,111", "--include-limits",
            "--horizon", "20000", "--resolution", "20",
        )
        assert p.returncode == 0
        summary = json.loads(p.stdout.strip().splitlines()[-1])["summary"]
        assert summary["points"] == 6
        assert summary["max_clique"] == 2

    def test_duplicate_codes_rejected(self):
        p = run_cli("scan", "--codes-inline", "000,000", "--horizon", "100")
        assert p.returncode == 2
        assert "distinct" in p.stderr

    def test_single_code_rejected(self):
        assert run_cli("scan", "--codes-inline", "000").returncode == 2

    def test_aliasing_codes_rejected(self):
        # 010 and 0100 are distinct strings but the same base point
        p = run_cli("scan", "--codes-inline", "010,0100", "--horizon", "100")
        assert p.returncode == 2
        assert p.stderr.startswith("error: codes 010 and 0100 alias")
        assert "Traceback" not in p.stderr

    def test_csv_not_supported(self):
        p = run_cli("scan", "--codes-inline", "000,111", "--format", "csv")
        assert p.returncode == 2


class TestOmegaCmd:
    def test_mid_lengths_pass(self):
        p = run_cli(
            "omega", "000", "111", "--factor-len", "8..10",
            "--horizon", "100000",
        )
        assert p.returncode == 0
        assert p.stdout.splitlines() == [
            "n,diff_st,diff_ts,intersection,z_total,z_missing,aperiodic_s,aperiodic_t,note",
            "8,30,3,35,16,0,1,1,",
            "9,44,11,41,18,0,1,1,",
            "10,62,23,46,20,0,1,1,",
            "# summary: pass",
        ]

    def test_short_lengths_fail(self):
        p = run_cli(
            "omega", "000", "111", "--factor-len", "5..6",
            "--horizon", "100000",
        )
        assert p.returncode == 3
        assert p.stdout.splitlines()[-1] == "# summary: fail"

    def test_identical_codes_rejected(self):
        assert run_cli("omega", "000", "000").returncode == 2

    def test_aliasing_codes_rejected(self):
        # 000 and 0000 are distinct strings but one point x_000
        p = run_cli("omega", "000", "0000", "--factor-len", "5", "--horizon", "1000")
        assert p.returncode == 2
        assert p.stdout == ""
        assert p.stderr.startswith("error: codes 000 and 0000 alias")

    def test_quick_sets_the_horizon(self):
        p = run_cli("omega", "000", "111", "--factor-len", "8..10", "--quick")
        q = run_cli(
            "omega", "000", "111", "--factor-len", "8..10",
            "--horizon", "100000",
        )
        assert p.returncode == q.returncode == 0
        assert p.stdout == q.stdout

    @pytest.mark.parametrize("horizon", ["0", "-5"])
    def test_nonpositive_horizon_is_usage_error(self, horizon):
        p = run_cli("omega", "000", "111", "--horizon", horizon)
        assert p.returncode == 2
        assert p.stdout == ""
        assert p.stderr == "error: horizon and resolution must be positive\n"

    def test_insufficient_horizon_note(self):
        p = run_cli(
            "omega", "000", "111", "--factor-len", "70",
            "--horizon", "60", "--format", "text",
        )
        assert "note=insufficient horizon" in p.stdout
        assert p.returncode == 3


class TestSturmianCmd:
    def test_text_summary(self):
        p = run_cli(
            "sturmian-check", "--max-shift", "6",
            "--horizon", "10000", "--resolution", "20",
        )
        assert p.returncode == 0
        lines = p.stdout.splitlines()
        assert lines[-1] == "summary: pass"
        assert "violations: 0" in lines

    def test_csv_rows(self):
        p = run_cli(
            "sturmian-check", "--max-shift", "6", "--format", "csv",
            "--horizon", "10000", "--resolution", "20",
        )
        lines = p.stdout.splitlines()
        assert lines[0] == "i,j,K,max_lcp,verdict,ok"
        assert len(lines) == 22
        assert all(line.endswith(",distal-candidate,1") for line in lines[1:])
        assert lines[1].startswith("0,1,7,")

    @pytest.mark.parametrize("max_shift", ["0", "-3"])
    def test_no_shift_pairs_is_usage_error(self, max_shift):
        p = run_cli("sturmian-check", "--max-shift", max_shift, "--quick")
        assert p.returncode == 2
        assert p.stderr == "error: max_shift must be >= 1\n"


class TestSclosedCmd:
    def test_positive_control(self):
        p = run_cli(
            "sclosed-check", "--codes-inline", "1,01,001,0001",
            "--horizon", "10000",
        )
        assert p.returncode == 0
        lines = p.stdout.splitlines()
        assert lines[0] == "limit: 0001"
        assert lines[1] == "k=1 code=1 lcp=3"
        assert lines[-1] == "summary: pass"

    def test_codes_file(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_text("1\n01  # comment\n001\n\n0001\n", encoding="ascii")
        p = run_cli("sclosed-check", "--codes", str(path), "--horizon", "10000")
        q = run_cli(
            "sclosed-check", "--codes-inline", "1,01,001,0001",
            "--horizon", "10000",
        )
        assert p.returncode == q.returncode == 0
        assert p.stdout == q.stdout
        assert p.stdout.splitlines()[0] == "limit: 0001"

    def test_nested_family_fails(self):
        p = run_cli("sclosed-check", "--horizon", "100000")
        assert p.returncode == 3
        assert p.stdout.splitlines()[-1] == "summary: fail"

    def test_non_convergent_not_applicable(self):
        p = run_cli(
            "sclosed-check", "--codes-inline", "01,1,001,0001",
            "--horizon", "10000",
        )
        assert p.returncode == 2
        assert p.stdout.splitlines()[-1] == "summary: not applicable"


class TestDendriteCmd:
    def test_iterate_interior(self):
        p = run_cli("dendrite", "iterate", "int:101:1/3", "--language", "full")
        assert p.returncode == 0
        assert p.stdout == "1: int:01:1/3\n2: int:1:1/3\n3: root\n"

    def test_iterate_root(self):
        p = run_cli("dendrite", "iterate", "root", "--language", "full")
        assert p.stdout == "0: root\n"

    def test_iterate_endpoint_capped(self):
        p = run_cli(
            "dendrite", "iterate", "end:per:01", "--steps", "3",
            "--language", "full",
        )
        assert p.stdout == (
            "1: end:shift(per:01,1)\n"
            "2: end:shift(per:01,2)\n"
            "3: end:shift(per:01,3)\n"
            "steps_to_root: never\n"
        )

    @pytest.mark.parametrize("steps", ["0", "-4"])
    def test_iterate_steps_below_one_rejected(self, steps):
        # both used to run one step and exit 0
        p = run_cli("dendrite", "iterate", "end:x:000", f"--steps={steps}")
        assert p.returncode == 2
        assert p.stdout == ""
        assert p.stderr == "error: steps must be >= 1\n"

    def test_iterate_rejected_address(self):
        p = run_cli("dendrite", "iterate", "branch:1010101010")
        assert p.returncode == 2
        assert "rejected" in p.stderr

    def test_graph_full_depth3(self):
        p = run_cli("dendrite", "graph", "--language", "full", "--depth", "3")
        lines = p.stdout.splitlines()
        assert len(lines) == 31
        assert lines[0] == "digraph dendrite {"
        assert lines[-1] == "}"

    def test_check_defaults_pass(self):
        p = run_cli("dendrite", "check")
        assert p.returncode == 0
        lines = p.stdout.splitlines()
        assert lines[0] == "accepted words of length 5: 22"
        assert lines[-1] == "summary: pass"

    def test_check_single_code_fails(self):
        p = run_cli(
            "dendrite", "check", "--codes-inline", "000",
            "--factor-len", "8", "--horizon", "4000",
        )
        assert p.returncode == 3
        assert "  isolated: 00111110" in p.stdout.splitlines()

    def test_options_before_check_rejected(self):
        # the group takes no options; given there, the subcommand's
        # defaults used to replace them and the default codes were checked
        p = run_cli("dendrite", "--codes-inline", "0101,1110", "check")
        assert p.returncode == 2
        assert p.stdout == ""
        after = run_cli("dendrite", "check", "--codes-inline", "0101,1110")
        assert after.returncode == 3
        assert "isolated: 6" in after.stdout.splitlines()

    def test_check_factor_len_range_rejected(self):
        p = run_cli("dendrite", "check", "--factor-len", "3..4")
        assert p.returncode == 2
        assert p.stderr == "error: dendrite check takes one factor length, not '3..4'\n"
        one = run_cli("dendrite", "check", "--factor-len", "4", "--language", "full")
        assert one.returncode == 0
        assert one.stdout.splitlines()[0] == "accepted words of length 4: 16"


class TestPlumbing:
    def test_out_flag_writes_file(self, tmp_path):
        target = tmp_path / "word.txt"
        p = run_cli("gen", "x:000", "12", "--out", str(target))
        assert p.returncode == 0
        assert p.stdout == ""
        assert target.read_text() == "101101111011\n"

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("horizon=4\nresolution=8\n# comment\n")
        p = run_cli(
            "pair", "per:01", "per:00", "--format", "csv", "--config", str(cfg)
        )
        assert len(p.stdout.splitlines()) == 6  # header + n = 0..4
        p2 = run_cli(
            "pair", "per:01", "per:00", "--format", "csv",
            "--config", str(cfg), "--horizon", "2",
        )
        assert len(p2.stdout.splitlines()) == 4  # flag wins over config

    def test_codes_inline_from_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("codes-inline=000\nfactor-len=8\nhorizon=4000\n")
        p = run_cli("dendrite", "check", "--config", str(cfg))
        assert p.returncode == 3
        assert "  isolated: 00111110" in p.stdout.splitlines()

    def test_codes_file(self, tmp_path):
        codes = tmp_path / "codes.txt"
        codes.write_text("000\n# note\n111\n")
        p = run_cli(
            "scan", "--codes", str(codes),
            "--horizon", "5000", "--resolution", "10",
        )
        assert p.returncode == 0
        summary = json.loads(p.stdout.strip().splitlines()[-1])["summary"]
        assert summary["points"] == 2

    def _config(self, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        return ["--config", str(cfg)]

    def test_config_format_is_honoured(self, tmp_path, capsys):
        # the key is the flag's name; it used to be the dest "fmt"
        from gehman.cli import main

        base = ["pair", "per:01", "per:00", "--horizon", "4", "--resolution", "8"]
        assert main(base + ["--format", "text"]) == 0
        flag = capsys.readouterr().out
        assert flag.startswith("pair: per:01 | per:00\n")
        assert main(base + self._config(tmp_path, "format=text\n")) == 0
        assert capsys.readouterr().out == flag
        assert main(base + self._config(tmp_path, "fmt=text\n")) == 2
        assert "unrecognized arguments: --fmt=text" in capsys.readouterr().err

    def test_config_unknown_key_is_usage_error(self, tmp_path, capsys):
        from gehman.cli import main

        args = ["pair", "per:01", "per:00"] + self._config(tmp_path, "horizn=5\n")
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --horizn=5" in captured.err

    def test_config_switch_takes_yes_or_no(self, tmp_path, capsys):
        from gehman.cli import main

        cfg = self._config(tmp_path, "quick=maybe\n")
        assert main(["pair", "per:01", "per:00"] + cfg) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg[1]}:1: quick takes yes or no, not 'maybe'\n"
        )

    def test_config_switch_off_does_not_override_flag(self, tmp_path, capsys):
        from gehman.cli import main

        base = ["pair", "per:01", "per:00", "--format", "text", "--quick"]
        assert main(base + self._config(tmp_path, "quick=no\n")) == 0
        assert "params: N=100000 m=20" in capsys.readouterr().out.splitlines()
        assert main(base[:-1] + self._config(tmp_path, "quick=yes\n")) == 0
        assert "params: N=100000 m=20" in capsys.readouterr().out.splitlines()

    def test_config_leading_minus_value(self, tmp_path, capsys):
        from gehman.cli import main

        base = ["sturmian-check", "--max-shift", "2", "--horizon", "100"]
        assert main(base + ["--angle=-1/8+1/4*sqrt(2)"]) == 0
        flag = capsys.readouterr().out
        assert flag.startswith("alpha: -1/8 + 1/4*sqrt(2)\n")
        assert main(base + self._config(tmp_path, "angle=-1/8+1/4*sqrt(2)\n")) == 0
        assert capsys.readouterr().out == flag

    def test_config_bad_choice(self, tmp_path, capsys):
        from gehman.cli import main

        args = ["dendrite", "graph"] + self._config(tmp_path, "language=fam\n")
        assert main(args) == 2
        assert "argument --language: invalid choice: 'fam'" in capsys.readouterr().err

    def test_abbreviated_flag_is_usage_error(self, capsys):
        # a prefix of --resolution used to run the pair at m = 5
        from gehman.cli import main

        assert main(["pair", "x:000", "a:000", "--res", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --res 5" in captured.err

    def test_abbreviated_config_key_is_usage_error(self, tmp_path, capsys):
        from gehman.cli import main

        args = ["pair", "x:000", "a:000"] + self._config(tmp_path, "res=5\n")
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --res=5" in captured.err

    def test_determinism_two_runs(self):
        args = (
            "scan", "--codes-inline", "000,011,101", "--horizon", "5000",
            "--resolution", "10",
        )
        a, b = run_cli(*args), run_cli(*args)
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0

    def test_in_process_calls_match_fresh_processes(self, capsys, monkeypatch):
        # main builds its parser once per process; each later call must
        # print and exit exactly as a fresh process does
        from gehman.cli import main

        monkeypatch.setenv("COLUMNS", "80")
        calls = [
            ["pair", "b:000", "b:111", "--horizon", "5000", "--resolution", "10"],
            ["omega", "000", "111", "--horizon", "20000", "--factor-len", "5..8"],
            ["gen", "x:000", "40"],
            ["pair", "x:000", "a:000", "--horizon", "many"],
            ["gen", "--help"],
            ["gen", "x:000", "12"],
        ]
        for args in calls:
            code = main(args)
            got = capsys.readouterr()
            fresh = run_cli(*args)
            assert (code, got.out, got.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr
            ), args


# One cheap invocation per command that its parser accepts, and the
# value each shared option takes below.
_BASES = {
    "gen": ["gen", "x:000", "5"],
    "diamond": ["diamond", "000", "--factor-len", "4", "--horizon", "20000"],
    "pair": ["pair", "x:000", "a:000", "--horizon", "100", "--resolution", "5"],
    "scan": ["scan", "--codes-inline", "000,111", "--horizon", "100",
             "--resolution", "5"],
    "omega": ["omega", "000", "111", "--factor-len", "5", "--horizon", "20000"],
    "sturmian-check": ["sturmian-check", "--max-shift", "2", "--horizon", "100"],
    "sclosed-check": ["sclosed-check", "--horizon", "100"],
    "dendrite iterate": ["dendrite", "iterate", "root"],
    "dendrite graph": ["dendrite", "graph", "--depth", "2"],
    "dendrite check": ["dendrite", "check", "--factor-len", "3", "--horizon", "2000"],
}
_VALUES = {
    "--horizon": ["--horizon", "100"],
    "--resolution": ["--resolution", "7"],
    "--factor-len": ["--factor-len", "5"],
    "--codes": ["--codes", "codes.txt"],
    "--codes-inline": ["--codes-inline", "000,111"],
    "--format": ["--format", "text"],
    "--quick": ["--quick"],
    "--include-limits": ["--include-limits"],
}
# The shared options a command does not read; each used to be accepted
# and ignored.
_UNREAD = [
    ("gen", opt) for opt in _VALUES
] + [
    ("diamond", "--resolution"), ("diamond", "--codes"),
    ("diamond", "--codes-inline"), ("diamond", "--format"),
    ("diamond", "--include-limits"),
    ("pair", "--factor-len"), ("pair", "--codes"), ("pair", "--codes-inline"),
    ("pair", "--include-limits"),
    ("scan", "--factor-len"),
    ("omega", "--resolution"), ("omega", "--codes"), ("omega", "--codes-inline"),
    ("omega", "--include-limits"),
    ("sturmian-check", "--factor-len"), ("sturmian-check", "--codes"),
    ("sturmian-check", "--codes-inline"), ("sturmian-check", "--include-limits"),
    ("sclosed-check", "--resolution"), ("sclosed-check", "--factor-len"),
    ("sclosed-check", "--format"), ("sclosed-check", "--quick"),
    ("sclosed-check", "--include-limits"),
    ("dendrite iterate", "--resolution"), ("dendrite iterate", "--factor-len"),
    ("dendrite iterate", "--format"), ("dendrite iterate", "--quick"),
    ("dendrite iterate", "--include-limits"),
    ("dendrite graph", "--resolution"), ("dendrite graph", "--factor-len"),
    ("dendrite graph", "--quick"), ("dendrite graph", "--include-limits"),
    ("dendrite check", "--resolution"), ("dendrite check", "--format"),
    ("dendrite check", "--quick"), ("dendrite check", "--include-limits"),
]


class TestUnreadOptions:
    @pytest.mark.parametrize("command", list(_BASES))
    def test_base_call_is_accepted(self, command, capsys):
        from gehman.cli import main

        assert main(_BASES[command]) != 2
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("command,option,via", [
        pytest.param(c, o, via, id=f"{c}-{o}" + ("-config" if via == "config" else ""))
        for via in ("flag", "config") for c, o in _UNREAD
    ])
    def test_unread_option_is_usage_error(self, command, option, via, tmp_path, capsys):
        from gehman.cli import main

        extra = _VALUES[option]
        if via == "config":
            # a config line is the same flag, so it is rejected the same way
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{option[2:]}={extra[1] if len(extra) > 1 else 'yes'}\n")
            extra = ["--config", str(cfg)]
        assert main(_BASES[command] + extra) == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    def test_sturmian_check_keeps_quick(self, capsys):
        # its defaults already are the quick values, so --quick changes nothing
        from gehman.cli import main

        base = ["sturmian-check", "--max-shift", "2"]
        assert main(base) == 0
        plain = capsys.readouterr().out
        assert main(base + ["--quick"]) == 0
        assert capsys.readouterr().out == plain
