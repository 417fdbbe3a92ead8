import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import yoshida
from yoshida import primes
from yoshida.cli import run
from yoshida.curves import load_coeffs


@pytest.fixture()
def pair_files(tmp_path):
    f = tmp_path / "f11.txt"
    g = tmp_path / "g33.txt"
    assert run(["ap", "--curve", "0,-1,1,0,0", "--pmax", "200", "--level", "11",
                "--out", str(f)]) == 0
    assert run(["ap", "--curve", "1,1,0,-11,0", "--pmax", "200", "--level", "33",
                "--out", str(g)]) == 0
    return f, g


def test_ap_writes_header_and_rows(tmp_path):
    out = tmp_path / "ap11.txt"
    assert run(["ap", "--curve", "0,-1,1,0,0", "--pmax", "100", "--level", "11",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# level=11 weight=2"
    assert lines[1] == "2 -2"
    assert len(lines) == 1 + 25  # pi(100) = 25


def test_ap_roundtrip_bit_exact(pair_files, tmp_path):
    f, _ = pair_files
    nf = load_coeffs(f)
    assert nf.level == 11 and nf.prime_array[0] == 2 and nf.values[0] == -2
    from yoshida.curves import write_coeffs
    again = tmp_path / "again.txt"
    write_coeffs(nf, again)
    assert again.read_bytes() == f.read_bytes()


def test_lift_csv(pair_files, tmp_path):
    f, g = pair_files
    out = tmp_path / "lift.csv"
    assert run(["lift", "--f", str(f), "--g", str(g), "--xmax", "100", "--exact",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,lambda,sign"
    first = lines[1].split(",")
    assert first[0] == "1" and float(first[1]) == 1.0 and first[2] == "1"
    # all indices coprime to 33
    for ln in lines[1:]:
        n = int(ln.split(",")[0])
        assert math.gcd(n, 33) == 1


def test_lift_float_mode_question_mark(tmp_path):
    # normalized tables with cancelling eigenvalues: lambda_F(2) = 0 -> '?'
    f = tmp_path / "f.txt"
    g = tmp_path / "g.txt"
    f.write_text("# level=11 weight=2 normalized\n2 -0.5\n3 0.25\n5 0.0\n7 0.1\n11 0.301511\n")
    g.write_text("# level=33 weight=2 normalized\n2 0.5\n3 0.57735\n5 0.0\n7 0.2\n11 0.301511\n")
    out = tmp_path / "l.csv"
    assert run(["lift", "--f", str(f), "--g", str(g), "--xmax", "10", "--out", str(out)]) == 0
    rows = {ln.split(",")[0]: ln.split(",") for ln in out.read_text().splitlines()[1:]}
    assert rows["2"][2] == "?"
    assert rows["7"][2] == "1"


def test_float_sign_rule_same_in_lift_and_search(tmp_path, capsys):
    # lambda_F(2) = -0.5 + 0.4999999999 ~ -1e-10: inside the sign tolerance,
    # so lift prints no sign and search refuses to certify it
    f = tmp_path / "f.txt"
    g = tmp_path / "g.txt"
    f.write_text("# level=11 weight=2 normalized\n2 -0.5\n3 0.25\n5 0.0\n7 0.1\n11 0.301511\n")
    g.write_text("# level=33 weight=2 normalized\n2 0.4999999999\n3 0.57735\n5 0.0\n7 0.2\n"
                 "11 0.301511\n")
    out = tmp_path / "l.csv"
    pair = ["--f", str(f), "--g", str(g), "--xmax", "10"]
    assert run(["lift", *pair, "--out", str(out)]) == 0
    rows = {ln.split(",")[0]: ln.split(",") for ln in out.read_text().splitlines()[1:]}
    assert -1e-9 < float(rows["2"][1]) < 0
    assert rows["2"][2] == "?"
    assert run(["search", *pair, "--out", str(tmp_path / "s.json")]) == 2
    assert "sign uncertain at n=2" in capsys.readouterr().err
    # witness and report read the same first-negative rule
    for argv in (["witness", *pair[:4], "--x", "10"], ["report", *pair]):
        out = tmp_path / f"{argv[0]}.json"
        assert run([*argv, "--out", str(out)]) == 2, argv
        assert "computation error: sign uncertain at n=2" in capsys.readouterr().err
        assert not out.exists()


def test_uncertain_factor_makes_every_multiple_uncertain(tmp_path, capsys):
    # lambda_F(2) = 0.5 + (-0.4999999995), about 5e-10, is inside the sign
    # band; lambda_F(5) = 3.0, so lambda_F(10) is about 1.5e-9, outside the
    # band but no more certain than its factor at 2.  lambda_F(4) = -2.25 is
    # a certified negative, yet n = 2 before it might be the first
    f = tmp_path / "f.txt"
    g = tmp_path / "g.txt"
    f.write_text("# level=11 weight=2 normalized\n2 0.5\n3 0.25\n5 1.5\n7 0.1\n11 0.301511\n")
    g.write_text("# level=33 weight=2 normalized\n2 -0.4999999995\n3 0.57735\n5 1.5\n7 0.2\n"
                 "11 0.301511\n")
    out = tmp_path / "l.csv"
    pair = ["--f", str(f), "--g", str(g)]
    assert run(["lift", *pair, "--xmax", "10", "--out", str(out)]) == 0
    rows = {ln.split(",")[0]: ln.split(",")[1:] for ln in out.read_text().splitlines()[1:]}
    assert rows["2"][1] == rows["10"][1] == "?"
    assert 1e-9 < float(rows["10"][0]) < 2e-9
    assert rows["4"][1] == "-1" and rows["5"][1] == "1"
    for argv in (["search", *pair, "--xmax", "10"], ["witness", *pair, "--x", "10"],
                 ["report", *pair, "--xmax", "10"]):
        out = tmp_path / f"{argv[0]}.json"
        assert run([*argv, "--out", str(out)]) == 2, argv
        assert "computation error: sign uncertain at n=2 " in capsys.readouterr().err
        assert not out.exists()


def test_same_newform_pair_exits_1(tmp_path, capsys):
    # [0,-1,1,0,0] and [0,-1,1,-10,-20] are isogenous: equal a_p, one newform
    f, g, h = tmp_path / "f.txt", tmp_path / "g.txt", tmp_path / "h.txt"
    for curve, path in (("0,-1,1,0,0", f), ("0,-1,1,-10,-20", g), ("1,1,0,-11,0", h)):
        assert run(["ap", "--curve", curve, "--pmax", "100", "--out", str(path)]) == 0
    assert f.read_bytes() == g.read_bytes()
    out = tmp_path / "l.csv"
    assert run(["lift", "--f", str(f), "--g", str(g), "--xmax", "100", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: f and g are the same newform") and "Traceback" not in err
    assert not out.exists()
    assert run(["lift", "--f", str(f), "--g", str(h), "--xmax", "100", "--out", str(out)]) == 0


def test_normalized_copy_of_same_newform_exits_1(tmp_path, capsys):
    # 11a as 6-decimal lambda(p) beside its own integer table: one newform
    f, g = tmp_path / "f.txt", tmp_path / "g.txt"
    assert run(["ap", "--curve", "0,-1,1,0,0", "--pmax", "100", "--out", str(g)]) == 0
    t = load_coeffs(g)
    f.write_text("# level=11 weight=2 normalized\n"
                 + "".join(f"{p} {v:.6f}\n"
                           for p, v in zip(t.prime_array.tolist(), t.lam_array.tolist())))
    out = tmp_path / "l.csv"
    assert run(["lift", "--f", str(f), "--g", str(g), "--xmax", "100", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: f and g are the same newform")
    assert not out.exists()


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # each line of the README's CLI block runs as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    lines = [ln for ln in block.splitlines() if ln.startswith("yoshida ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)[1:]
        assert run(argv) == 0, line
        if "--out" in argv:
            assert (tmp_path / argv[argv.index("--out") + 1]).exists(), line


def test_exact_flag_changes_nothing(pair_files, tmp_path):
    f, g = pair_files
    pair = ["--f", str(f), "--g", str(g), "--xmax", "200"]
    for cmd in ("lift", "report"):
        plain, flagged = tmp_path / f"{cmd}.out", tmp_path / f"{cmd}-exact.out"
        assert run([cmd, *pair, "--out", str(plain)]) == 0
        assert run([cmd, *pair, "--exact", "--out", str(flagged)]) == 0
        assert plain.read_bytes() == flagged.read_bytes()


def test_lift_xmax_zero_is_usage_error(pair_files, capsys):
    # every subcommand that builds a sequence gets lift_sequence's own check
    f, g = pair_files
    pair = ["--f", str(f), "--g", str(g)]
    for argv in (["lift", *pair, "--xmax", "0"], ["search", *pair, "--xmax", "0"],
                 ["report", *pair, "--xmax", "0"], ["witness", *pair, "--x", "0"]):
        assert run(argv) == 1, argv
        assert "xmax must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["majorant", "verify", "--grid-step", "nan"],
    ["majorant", "optimize", "--grid-step", "nan"],
    ["majorant", "optimize", "--grid-step", "-1"],
    # below the 1e-6 floor the displayed grid's memory has no bound
    ["majorant", "verify", "--grid-step", "1e-7"],
    ["majorant", "optimize", "--grid-step", "1e-7"],
    ["search", "--epsilon", "nan"],
    ["search", "--epsilon", "inf"],
    ["report", "--epsilon", "nan"],
    ["search", "--conductor-constant", "nan"],
    ["report", "--conductor-constant", "nan"],
    ["search", "--conductor-constant", "inf"],
    # finite flags whose Q^_F, or one of its two powers, is not finite positive
    ["search", "--epsilon", "1e308"],
    ["search", "--conductor-constant", "1e308"],
    ["report", "--conductor-constant", "1e308"],
    ["search", "--conductor-constant", "1e-300", "--epsilon", "10"],
    ["report", "--conductor-constant", "1e-300", "--epsilon", "10"],
    ["report", "--y", "0"],
    ["report", "--y", "1"],
], ids=lambda argv: "_".join(a.removeprefix("--") for a in argv))
def test_nonfinite_or_nonpositive_flag_exits_1(argv, pair_files, tmp_path, capsys):
    f, g = pair_files
    if argv[0] != "majorant":
        argv = [*argv, "--f", str(f), "--g", str(g), "--xmax", "100"]
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("y", ["-5", "0", "1"])
def test_stats_y_below_2_exits_1(y, pair_files, tmp_path, capsys):
    # no prime is <= y, so the statistics would all read zero
    _, g = pair_files
    out = tmp_path / "out"
    assert run(["stats", "--form", str(g), "--y", y, "--out", str(out)]) == 1
    assert "error: argument --y: expected an integer >= 2" in capsys.readouterr().err
    assert not out.exists()
    assert run(["stats", "--form", str(g), "--y", "2", "--out", str(out)]) == 0


def test_y_beyond_the_tables_exits_1(pair_files, tmp_path, capsys):
    # the tables stop at p = 199: report refuses --y 1000 as stats does,
    # rather than printing statistics up to 199
    f, g = pair_files
    out = tmp_path / "out"
    for argv in (["stats", "--form", str(g), "--y", "1000"],
                 ["report", "--f", str(f), "--g", str(g), "--xmax", "100", "--y", "1000"]):
        assert run([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: coefficient table too short: "
                                           "missing p=211 (needed up to 1000)\n")
        assert not out.exists()
    # no prime lies in (199, 210], so the tables cover y = 210
    assert run(["report", "--f", str(f), "--g", str(g), "--xmax", "100", "--y", "210",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["stats"]["g"]["y"] == 199


def test_report_checks_y_before_the_lift(pair_files, tmp_path, capsys, monkeypatch):
    from yoshida import lift

    def refuse(spec, xmax):
        raise AssertionError("lift_sequence called")

    monkeypatch.setattr(lift, "lift_sequence", refuse)
    f, g = pair_files
    out = tmp_path / "out"
    assert run(["report", "--f", str(f), "--g", str(g), "--xmax", "100", "--y", "1000",
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: coefficient table too short: "
                                       "missing p=211 (needed up to 1000)\n")
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["lift", "stats"])
def test_nan_at_level_prime_exits_1(cmd, tmp_path, capsys):
    # lambda(11) = nan at the level prime rounds to no integer a_11, so the
    # table is refused when it is loaded
    f, g = tmp_path / "f.txt", tmp_path / "g.txt"
    f.write_text("# level=11 weight=2 normalized\n2 -0.5\n3 0.25\n5 0.0\n7 0.1\n11 nan\n")
    g.write_text("# level=33 weight=2 normalized\n2 0.5\n3 0.57735\n5 0.0\n7 0.2\n11 0.301511\n")
    out = tmp_path / "out"
    argv = {"lift": ["lift", "--f", str(f), "--g", str(g), "--xmax", "10"],
            "stats": ["stats", "--form", str(f), "--y", "10"]}[cmd]
    # an exception cli.run does not catch would propagate here, not return 1
    assert run([*argv, "--out", str(out)]) == 1
    assert "error: bad-prime bound violated at p=11" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("header,a11", [
    ("", "0"), (" normalized", "0.3"), (" normalized", "inf"), (" normalized", "-inf"),
], ids=["int_0", "normalized_0.3", "inf", "minus_inf"])
@pytest.mark.parametrize("cmd", ["lift", "stats"])
def test_level_prime_not_of_multiplicative_type_exits_1(cmd, header, a11, pair_files,
                                                         tmp_path, capsys):
    # |a_11| must be 11^0 = 1 exactly (a normalized lambda(11) must round to
    # +-1): every subcommand refuses the table when it is loaded
    _, g = pair_files
    f = tmp_path / "f.txt"
    rows = "2 -2\n3 -1\n5 1\n7 -2\n" if not header else "2 -0.5\n3 0.25\n5 0.0\n7 0.1\n"
    f.write_text(f"# level=11 weight=2{header}\n{rows}11 {a11}\n")
    out = tmp_path / "out"
    argv = {"lift": ["lift", "--f", str(f), "--g", str(g), "--xmax", "10"],
            "stats": ["stats", "--form", str(f), "--y", "10"]}[cmd]
    assert run([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad-prime bound violated at p=11: need |a_p| = p^((k-2)/2)")
    assert "Traceback" not in err
    assert not out.exists()


def test_table_short_of_its_level_prime_exits_1(pair_files, tmp_path, capsys):
    # f stops at 7, below its level prime 11: it has no Atkin-Lehner sign there
    _, g = pair_files
    f = tmp_path / "f.txt"
    f.write_text("# level=11 weight=2\n2 -2\n3 -1\n5 1\n7 -2\n")
    out = tmp_path / "out"
    assert run(["lift", "--f", str(f), "--g", str(g), "--xmax", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: missing bad-prime coefficient at p=11\n"
    assert not out.exists()


def test_out_of_memory_exits_2(tmp_path, capsys):
    # the sieve to 10^18 needs 888 PiB, beyond any address space, so the
    # allocation is refused at once
    out = tmp_path / "ap.txt"
    t0 = time.perf_counter()
    assert run(["ap", "--curve", "0,-1,1,0,0", "--pmax", str(10**18), "--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 5.0
    assert capsys.readouterr().err.startswith("computation error: out of memory (")
    assert not out.exists()


@pytest.mark.parametrize("argv,level,err", [
    # 33a has disc 3^6 11^2: a declared level 11 misses the multiplicative prime 3
    (["ap", "--curve", "1,1,0,-11,0", "--pmax", "100", "--level", "11"], None,
     "level 11 contradicts the model"),
    # ... and 3 drops the multiplicative prime 11 above pmax
    (["ap", "--curve", "1,1,0,-11,0", "--pmax", "7", "--level", "3"], None,
     "share its prime factors; the conductor is 33"),
    (["ap", "--curve", "0,-1,1,0,0", "--pmax", "10", "--level", "1000000000000000003"], None,
     "must divide the discriminant -11"),
    # a huge prime level is accepted after bounded trial division, then lacks its row
    (["stats", "--y", "3"], 10**18 + 3, "missing bad-prime coefficient"),
    (["stats", "--y", "3"], (10**9 + 7) * (10**9 + 9), "cannot factorize"),
], ids=["ap_level_misses_3", "ap_level_misses_11", "ap_huge_level", "stats_huge_prime_level",
        "stats_unfactorable_level"])
def test_contradicting_or_huge_level_exits_1_fast(argv, level, err, tmp_path, capsys):
    if level is not None:
        form = tmp_path / "form.txt"
        form.write_text(f"# level={level} weight=2\n2 1\n3 1\n")
        argv = [*argv, "--form", str(form)]
    out = tmp_path / "out"
    t0 = time.perf_counter()
    assert run([*argv, "--out", str(out)]) == 1
    assert time.perf_counter() - t0 < 5.0
    assert err in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["lift", "stats"])
def test_non_utf8_table_exits_1(cmd, pair_files, tmp_path, capsys):
    _, g = pair_files
    f = tmp_path / "f.txt"
    f.write_bytes(b"# level=11 weight=2\n2 -2\n3 \xff\n")
    out = tmp_path / "out"
    argv = {"lift": ["lift", "--f", str(f), "--g", str(g), "--xmax", "10"],
            "stats": ["stats", "--form", str(f), "--y", "3"]}[cmd]
    # an exception cli.run does not catch would propagate here, not return 1
    assert run([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "not UTF-8 text" in err
    assert not out.exists()


def test_unknown_flag_exits_1(capsys):
    assert run(["--nonsense"]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_file_exits_1(tmp_path, capsys):
    # FileNotFoundError is an OSError -> io error exit code
    assert run(["lift", "--f", str(tmp_path / "nope.txt"), "--g", str(tmp_path / "nope.txt"),
                "--xmax", "10"]) == 3


_F11 = "# level=11 weight=2\n2 -2\n3 -1\n5 1\n7 -2\n11 1\n"
_G33 = "# level=33 weight=2\n2 1\n3 -1\n5 -2\n7 0\n11 {a11}\n"
_STATS = ["stats", "--form", "{form}", "--y", "10"]
_LIFT = ["lift", "--f", "{f}", "--g", "{g}", "--xmax", "10"]


@pytest.mark.parametrize("argv,files,err", [
    (["ap", "--curve", "0,-1,x,0,0", "--pmax", "10"], {},
     "bad curve coefficients '0,-1,x,0,0': expected a1,a2,a3,a4,a6"),
    (["ap", "--curve", "0,-1,1,0", "--pmax", "10"], {},
     "expected 5 coefficients a1,a2,a3,a4,a6, got 4"),
    (["ap", "--curve", "0,0,0,0,0", "--pmax", "10"], {}, "curve is singular (discriminant 0)"),
    (["ap", "--curve", "0,-1,1,0,0", "--pmax", "0"], {}, "pmax must be >= 1, got 0"),
    (["stats", "--form", "{form}", "--y", "abc"], {"form": _F11},
     "argument --y: expected an integer >= 2, got 'abc'"),
    (_STATS, {"form": "# level=abc weight=2\n2 1\n"}, "{form}: malformed header field (line 1)"),
    (_STATS, {"form": "# level=11\n2 1\n"}, "{form}: missing header field 'weight' (line 1)"),
    (_STATS, {"form": "2 1\n"},
     "{form}: missing header line '# level=<int> weight=<int> [normalized]'"),
    (_STATS, {"form": "# level=4 weight=2\n2 0\n"}, "level 4 is not squarefree"),
    (_STATS, {"form": "# level=11 weight=3\n2 1\n"}, "weight must be an even integer >= 2, got 3"),
    (_STATS, {"form": "# level=3 weight=2 normalized\n2 2.5\n"},
     "Deligne bound violated at p=2: need |lambda| <= 2, got 2.5"),
    (_LIFT, {"f": _F11, "g": "# level=11 weight=4\n2 0\n3 0\n5 0\n7 0\n11 -11\n"},
     "g must have weight 2, got 4"),
    (_LIFT, {"f": _F11, "g": "# level=7 weight=2\n2 0\n3 0\n5 0\n7 1\n"},
     "levels coprime: gcd(11, 7) = 1"),
    (_LIFT, {"f": _F11, "g": _G33.format(a11=-1)}, "Atkin-Lehner mismatch at p=11: -1 vs 1"),
    (["search", "--f", "{f}", "--g", "{g}", "--xmax", "10", "--theta", "0.3"],
     {"f": _F11, "g": _G33.format(a11=1)}, "theta must lie in [0, 1/4), got 0.3"),
    # the bound settings are refused before any table is read: f and g here
    # are one newform, which the lift would refuse
    (["search", "--f", "{f}", "--g", "{f}", "--xmax", "10", "--theta", "0.3"],
     {"f": _F11}, "theta must lie in [0, 1/4), got 0.3"),
    (["report", "--f", "{f}", "--g", "{f}", "--xmax", "10", "--conductor-constant", "0"],
     {"f": _F11}, "conductor_constant must be finite and > 0, got 0.0"),
], ids=["ap_bad_coefficient", "ap_four_coefficients", "ap_singular", "ap_pmax_0", "stats_y_abc",
        "header_malformed", "header_missing_weight", "header_missing", "level_not_squarefree",
        "odd_weight", "normalized_deligne", "g_weight_4", "levels_coprime",
        "atkin_lehner_mismatch", "search_theta", "search_theta_before_the_pair",
        "report_conductor_constant_before_the_pair"])
def test_refusal_exits_1_with_its_message(argv, files, err, tmp_path, capsys):
    # each table file is named by its placeholder, which argv and err name too
    paths = {name: tmp_path / f"{name}.txt" for name in files}
    for name, text in files.items():
        paths[name].write_text(text)
    out = tmp_path / "out"
    assert run([a.format(**paths) for a in argv] + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: " + err.format(**paths)
    assert not out.exists()


def test_stats_without_a_good_prime_up_to_y(tmp_path):
    # the only prime <= 2 divides the level: pi(y; L) = 0 and the ratios read 0
    form, out = tmp_path / "form.txt", tmp_path / "stats.csv"
    form.write_text("# level=2 weight=2\n2 1\n")
    assert run(["stats", "--form", str(form), "--y", "2", "--format", "csv",
                "--out", str(out)]) == 0
    rows = set(out.read_text().splitlines())
    assert {"abs_sum.pi_yL,0", "corollary.holds,False", "bad_factor.lhs,1.5",
            "bad_factor.rhs,1.7071067811865475"} <= rows


def test_far_prime_in_short_table_rejected_fast(tmp_path, capsys):
    # two rows cannot reach 1000000007 without a gap; no sieve that far is made
    form = tmp_path / "far.txt"
    form.write_text("# level=11 weight=2\n2 1\n1000000007 3\n")
    t0 = time.perf_counter()
    assert run(["stats", "--form", str(form), "--y", "10"]) == 1
    assert time.perf_counter() - t0 < 0.5
    assert "prime table has a gap: missing p=3" in capsys.readouterr().err


def _fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(yoshida.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)


_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'yoshida'))\n"
_MAJORANT_MODULES = ["yoshida", "yoshida.cli", "yoshida.errors", "yoshida.majorant"]
_TABLE_MODULES = ["yoshida.curves", "yoshida.hecke", "yoshida.primes"]


def test_import_and_majorant_verify_leave_scipy_unloaded():
    code = ("import sys, yoshida\n"
            "from yoshida.cli import run\n"
            "assert run(['majorant', 'verify']) == 0\n"
            "assert run(['majorant', 'optimize', '--grid-step', '1e-4', '--refine']) == 0\n"
            + _LOADED +
            "sys.exit(3 if 'scipy' in sys.modules else 4 if 'numpy' in sys.modules else 0)\n")
    proc = _fresh_interpreter(code)
    assert "feasible_sufficient: True" in proc.stdout
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(_MAJORANT_MODULES)


@pytest.mark.parametrize("argv,modules", [
    (["ap", "--curve", "0,-1,1,0,0", "--pmax", "300", "--out", "{tmp}/f.txt"],
     _TABLE_MODULES + ["yoshida.mestre"]),
    (["lift", "--f", "{f}", "--g", "{g}", "--xmax", "100", "--out", "{tmp}/l.csv"],
     _TABLE_MODULES + ["yoshida.lift"]),
    (["report", "--f", "{f}", "--g", "{g}", "--xmax", "100", "--out", "{tmp}/r.json"],
     _TABLE_MODULES + ["yoshida.lift", "yoshida.signs"]),
], ids=["ap", "lift", "report"])
def test_each_subcommand_imports_only_its_modules(argv, modules, pair_files, tmp_path):
    f, g = pair_files
    argv = [a.format(tmp=tmp_path, f=f, g=g) for a in argv]
    proc = _fresh_interpreter(f"import sys\nfrom yoshida.cli import run\n"
                              f"assert run({argv!r}) == 0\n" + _LOADED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(sorted(_MAJORANT_MODULES + modules))


@pytest.mark.parametrize("curve,pmax,level,p", [
    ("0,0,0,5,0", "10", "10", 2),
    # additive only at 7 > pmax: refused before any prime is counted
    ("0,-1,1,-2,-1", "5", "3", 7),
], ids=["cusp_at_2", "cusp_at_7_above_pmax"])
def test_additive_reduction_exits_2(curve, pmax, level, p, tmp_path, capsys):
    out = tmp_path / "x.txt"
    assert run(["ap", "--curve", curve, "--pmax", pmax, "--level", level, "--out", str(out)]) == 2
    assert f"additive reduction at p={p}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_ap_without_level_writes_the_conductor(tmp_path):
    out = tmp_path / "g33.txt"
    assert run(["ap", "--curve", "1,1,0,-11,0", "--pmax", "100", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "# level=33 weight=2"


def test_stats_factorizes_the_level_once(pair_files, tmp_path, monkeypatch):
    real, calls = primes.factorize, []

    def counting(n):
        calls.append(n)
        return real(n)
    for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "yoshida"]:
        if getattr(mod, "factorize", None) is real:
            monkeypatch.setattr(mod, "factorize", counting)
    _, g = pair_files
    assert run(["stats", "--form", str(g), "--y", "100", "--out", str(tmp_path / "s.json")]) == 0
    assert calls == [33]


@pytest.mark.parametrize("header,rows,y", [
    # p^((k-2)/2) at p near 500 is beyond binary64: a scalar lambda(p) would overflow
    ("level=11 weight=240", {**dict.fromkeys(primes.primes_up_to(600).tolist(), 0),
                             11: 11**119}, "500"),
    # 11^296 sqrt(11) is inf in binary64: lambda(11) would be -0.0, not -11^(-1/2)
    ("level=11 weight=594", {2: 0, 3: 0, 5: 0, 7: 0, 11: -11**296}, "11"),
    # lambda(11) 11^399 sqrt(11) is beyond binary64: inferring w_11 overflowed
    ("level=11 weight=800 normalized", {2: 0.0, 3: 0.0, 5: 0.0, 7: 0.0, 11: 0.5}, "11"),
], ids=["overflow_error", "inf_scale", "normalized"])
def test_integer_table_beyond_binary64_exits_1(header, rows, y, tmp_path, capsys):
    form, g = tmp_path / "form.txt", tmp_path / "g.txt"
    form.write_text(f"# {header}\n" + "".join(f"{p} {v}\n" for p, v in sorted(rows.items())))
    g.write_text("# level=33 weight=2 normalized\n2 0.5\n3 0.57735\n5 0.0\n7 0.2\n11 0.301511\n")
    out = tmp_path / "out"
    for argv in (["stats", "--form", str(form), "--y", y],
                 ["lift", "--f", str(form), "--g", str(g), "--xmax", y]):
        # an exception cli.run does not catch would propagate here, not return 1
        assert run([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "p^(k-1) must stay below 2^2046" in err
        assert not out.exists()


def test_search_json(pair_files, tmp_path):
    f, g = pair_files
    out = tmp_path / "report.json"
    assert run(["search", "--f", str(f), "--g", str(g), "--xmax", "100", "--exact",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["first_negative_n"] == 2
    assert rep["q_f_hat"] == 1452.0
    assert rep["bound_value"] == pytest.approx(math.sqrt(1452.0))


def test_stats_csv(pair_files, tmp_path):
    _, g = pair_files
    out = tmp_path / "stats.csv"
    assert run(["stats", "--form", str(g), "--y", "100", "--format", "csv",
                "--out", str(out)]) == 0
    text = out.read_text().splitlines()
    assert text[0] == "key,value"
    keys = {ln.split(",")[0] for ln in text[1:]}
    assert "abs_sum.ratio_abs" in keys
    assert "corollary.contradiction_constant.numerator" in keys


def _json_leaves(obj, key=""):
    """(dotted key, printed value) of every scalar of a JSON report, and
    (key, "") of every empty list or object."""
    if isinstance(obj, (dict, list)):
        items = list(obj.items() if isinstance(obj, dict) else enumerate(obj))
        if not items:
            yield key, ""
        for k, v in items:
            yield from _json_leaves(v, f"{key}.{k}" if key else str(k))
    else:
        yield key, repr(obj) if isinstance(obj, float) else str(obj)


def test_search_and_witness_csv_hold_every_json_key(pair_files, tmp_path):
    # one CSV row per JSON leaf, in order: the s_curve triples of search, and
    # the witness's empty bound_failures at x = 200, which is one "key," row
    f, g = pair_files
    pair = ["--f", str(f), "--g", str(g)]
    for argv in (["search", *pair, "--xmax", "200"], ["witness", *pair, "--x", "200"]):
        text = {}
        for fmt in ("json", "csv"):
            out = tmp_path / f"{argv[0]}.{fmt}"
            assert run([*argv, "--format", fmt, "--out", str(out)]) == 0
            text[fmt] = out.read_text()
        lines = text["csv"].splitlines()
        assert lines[0] == "key,value"
        rows = [tuple(ln.split(",", 1)) for ln in lines[1:]]
        assert rows == list(_json_leaves(json.loads(text["json"]))), argv[0]
    assert ("bound_failures", "") in rows and json.loads(text["json"])["bound_failures"] == []
    assert ("hypothesis_violated.0", "2") in rows


def test_witness_json(pair_files, tmp_path):
    f, g = pair_files
    out = tmp_path / "wit.json"
    assert run(["witness", "--f", str(f), "--g", str(g), "--x", "100", "--exact",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert set(rep["counts"]) == {"v1", "case_i", "case_ii", "outside", "hypothesis_violated"}


def test_level_above_int64_exits_0(tmp_path, capsys):
    # a squarefree level above 2^63, the primorial 2 * 3 * ... * 53, paired
    # with a level-11 table that agrees at 11
    ps = primes.primes_up_to(59).tolist()
    level = math.prod(ps[:-1])
    assert level >= 2**63
    big, f11 = tmp_path / "big.txt", tmp_path / "f11.txt"
    big.write_text(f"# level={level} weight=2\n" + "".join(
        f"{p} {-1 if level % p == 0 else 0}\n" for p in ps))
    f11.write_text("# level=11 weight=2\n" + "".join(f"{p} {-1 if p == 11 else 0}\n" for p in ps))
    pair = ["--f", str(f11), "--g", str(big)]
    for argv in (["stats", "--form", str(big), "--y", "59"], ["lift", *pair, "--xmax", "59"],
                 ["report", *pair, "--xmax", "59"]):
        # an exception cli.run does not catch would propagate here, not return 0
        assert run([*argv, "--out", str(tmp_path / "out")]) == 0, argv
        assert capsys.readouterr().err == ""
    # every prime <= sqrt(59) divides the level, so the witness classifies none
    assert json.loads((tmp_path / "out").read_text())["witness"]["counts"] == dict.fromkeys(
        ("v1", "case_i", "case_ii", "outside", "hypothesis_violated"), 0)


def test_prime_level_above_2_64_lacks_its_row(tmp_path, capsys):
    form = tmp_path / "form.txt"
    form.write_text("# level=18446744073709551629 weight=2\n2 0\n3 0\n5 0\n7 0\n")
    assert run(["stats", "--form", str(form), "--y", "7"]) == 1
    err = capsys.readouterr().err
    assert err == "error: missing bad-prime coefficient at p=18446744073709551629\n"


def _primorial_pair(tmp_path, top):
    """A table of level L = the product of the primes <= top, and a level-11
    table; both have rows for every prime <= 800, with a_p = 1 at the primes of
    their level except a_11 = -1, and 0 elsewhere."""
    ps = primes.primes_up_to(800).tolist()
    level = math.prod(p for p in ps if p <= top)
    big, f11 = tmp_path / "big.txt", tmp_path / "f11.txt"
    big.write_text(f"# level={level} weight=2\n" + "".join(
        f"{p} {-1 if p == 11 else int(p <= top)}\n" for p in ps))
    f11.write_text("# level=11 weight=2\n" + "".join(f"{p} {-1 if p == 11 else 0}\n" for p in ps))
    return level, big, f11


def test_level_with_129_primes_exits_0(tmp_path, capsys):
    # 2^129 squarefree divisors: the bad-factor bound multiplies over the primes
    level, big, f11 = _primorial_pair(tmp_path, 727)
    assert len(primes.factorize(level)) == 129 and level < 2**1000
    out = tmp_path / "out.json"
    for argv in (["stats", "--form", str(big), "--y", "800"],
                 ["report", "--f", str(f11), "--g", str(big), "--xmax", "800"]):
        t0 = time.perf_counter()
        assert run([*argv, "--out", str(out)]) == 0, argv
        assert time.perf_counter() - t0 < 2.0, argv
        assert capsys.readouterr().err == ""
    bad = json.loads(out.read_text())["stats"]["g"]["bad_factor"]
    assert 1.0 < bad["lhs"] <= bad["rhs"] < math.inf


@pytest.mark.parametrize("command", ["search", "report", "witness"])
def test_level_of_2_1024_or_more_exits_without_traceback(command, tmp_path, capsys):
    level, big, f11 = _primorial_pair(tmp_path, 761)
    assert level.bit_length() == 1057
    out = tmp_path / "out.json"
    if command == "witness":
        # log(N_g) of an int too large for a float
        assert run(["witness", "--f", str(f11), "--g", str(big), "--x", "100",
                    "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["gate_log_qg_sq"] == math.log(level) ** 2
    else:
        # Q^_F = k^2 N1 N2 is no finite binary64
        assert run([command, "--f", str(big), "--g", str(f11), "--xmax", "100",
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: Q^_F = inf (theta=0.0, epsilon=0.0)")
        assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--delta", "1/0"),
    ("--alpha", "1e999999"),
    ("--delta", "1e-9999"),
    ("--upsilon", "1e-9999999999"),
    ("--delta", "1" * 101),
    ("--alpha", "-1/" + "7" * 101),
    ("--delta", "1.1.1"),
], ids=["zero_denominator", "alpha_1e999999", "delta_1e-9999", "upsilon_1e-9999999999",
        "numerator_101_digits", "denominator_101_digits", "malformed"])
def test_majorant_bad_parameter_exits_1(flag, value, tmp_path, capsys):
    out = tmp_path / "out"
    t0 = time.perf_counter()
    assert run(["majorant", "verify", f"{flag}={value}", "--out", str(out)]) == 1
    assert time.perf_counter() - t0 < 2.0
    err = capsys.readouterr().err
    assert f"error: argument {flag}: invalid parameter value: {value!r}" in err
    assert "Traceback" not in err and not out.exists()


def test_majorant_accepts_100_digit_parameters(capsys):
    assert run(["majorant", "verify", "--delta", "9" * 100, "--alpha=-1/" + "9" * 100]) == 0
    assert "feasible_sufficient: True" in capsys.readouterr().out


def test_majorant_verify_stdout(capsys):
    assert run(["majorant", "verify", "--delta", "1.1", "--alpha", "-0.057",
                "--upsilon", "-7"]) == 0
    out = capsys.readouterr().out
    assert "feasible_sufficient: True" in out
    assert "25992/125 < 216" in out  # exact rational slack of the cleared form


def test_majorant_verify_decimal_strings_exact(capsys):
    # --delta 1.1 must parse as the rational 11/10, not the binary float
    assert run(["majorant", "verify", "--delta", "1.1", "--alpha", "-0.057",
                "--upsilon", "-7"]) == 0
    assert "(slack 3/250)" in capsys.readouterr().out


def test_report_bundle(pair_files, tmp_path):
    f, g = pair_files
    out = tmp_path / "bundle.json"
    assert run(["report", "--f", str(f), "--g", str(g), "--xmax", "100", "--exact",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert set(rep) == {"first_negative_n", "xmax", "q_hat", "theta", "epsilon",
                        "bound_value", "ratio", "s_samples", "witness", "stats"}
    assert rep["witness"]["counts"]["hypothesis_violated"] >= 0
    assert rep["stats"]["g"]["bad_factor"]["lhs"] <= rep["stats"]["g"]["bad_factor"]["rhs"]


def test_outputs_byte_identical_across_runs(pair_files, tmp_path):
    f, g = pair_files
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert run(["report", "--f", str(f), "--g", str(g), "--xmax", "100", "--exact",
                    "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_lift_roundtrip_reproduces_values(pair_files, tmp_path):
    # ap output re-ingested: identical exact table -> identical lift CSV
    f, g = pair_files
    out1 = tmp_path / "l1.csv"
    out2 = tmp_path / "l2.csv"
    f2 = tmp_path / "f2.txt"
    f2.write_text((tmp_path / f.name).read_text())
    assert run(["lift", "--f", str(f), "--g", str(g), "--xmax", "150", "--exact",
                "--out", str(out1)]) == 0
    assert run(["lift", "--f", str(f2), "--g", str(g), "--xmax", "150", "--exact",
                "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# SHA-256 of each subcommand's output file on the 11a/33a tables at xmax 1e4,
# frozen from the per-n dict implementation of the lift: any change to the
# printed bits (float formatting, summation order, sign rule) fails here
FROZEN_DIGESTS = {
    "lift": "c14a4e5fa74d6b3cd08f5f653553cbc979808ace6875a6be401bdd878ec96631",
    "search": "7beed82e5d4daad3d0eb88fe16c483c0034bc7fc5a8142326c60be76a16c306b",
    "witness": "b841cda894d505b30bbef4ec611f1b45ffcba5c9d9c5d56c4a1c699c37163ce7",
    "report": "fadab7b212344a904309aefe098e865328f99c0c009a59e6d966c3c9422cad1c",
}


def test_outputs_match_frozen_digests(table_11a, table_33a, tmp_path):
    import hashlib

    from yoshida.curves import write_coeffs
    f, g = tmp_path / "f11.txt", tmp_path / "g33.txt"
    write_coeffs(table_11a, f)
    write_coeffs(table_33a, g)
    pair = ["--f", str(f), "--g", str(g)]
    argvs = {"lift": ["lift", *pair, "--xmax", "10000"],
             "search": ["search", *pair, "--xmax", "10000"],
             "witness": ["witness", *pair, "--x", "10000"],
             "report": ["report", *pair, "--xmax", "10000"]}
    got = {}
    for name, argv in argvs.items():
        out = tmp_path / f"{name}.out"
        assert run([*argv, "--out", str(out)]) == 0
        got[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == FROZEN_DIGESTS


# SHA-256 of the lift CSV and the report JSON on the seeded integer pairs of
# weight 4 (xmax 3000) and weight 12 (xmax 1800), frozen before the exact
# channel carried signs instead of integers: the exact signs above weight 2,
# where lambda_F(n) n^((k-1)/2) passes 2^63
FROZEN_EXACT_DIGESTS = {
    "k4.lift": "150cdd6a01287ae6092d7e3b38446331a4c39108d97029f8ae4a6767792e8554",
    "k4.report": "397b35fe270b35c5be98e911e0265448cd6a475f80afd8ca62fb37bdcf88ba4a",
    "k12.lift": "b0192fb2eb342d8c98ae0fe63a2caa87d9def9fa45256f966e3219945e569ed8",
    "k12.report": "9032b54c60a926ec196e67f66f372c2dca05b3a26090734f13524d881fbeea1c",
}


def test_exact_channel_outputs_match_frozen_digests(tmp_path):
    import hashlib

    from yoshida.curves import write_coeffs
    from tests.test_lift import _synthetic_pair
    got = {}
    for k, xmax, seed in ((4, 3000, 4), (12, 1800, 1)):
        spec = _synthetic_pair(k, xmax, seed)
        f, g = tmp_path / f"f{k}.txt", tmp_path / f"g{k}.txt"
        write_coeffs(spec.f, f)
        write_coeffs(spec.g, g)
        for name in ("lift", "report"):
            out = tmp_path / f"k{k}.{name}"
            assert run([name, "--f", str(f), "--g", str(g), "--xmax", str(xmax),
                        "--out", str(out)]) == 0
            got[f"k{k}.{name}"] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == FROZEN_EXACT_DIGESTS


# SHA-256 of the majorant commands' stdout and --out JSON: the exact
# certificate of the reference point, and the closed-form optimum
FROZEN_MAJORANT_DIGESTS = {
    "verify.stdout": "1756e16c1e20f62640aa60f5085104e9bac90b0d7bfd35e4523dca934e03e327",
    "verify.json": "b43f33d3e30576d0d59b18669b46621d0c423da44489a6af7292dce29f80e596",
    "optimize.stdout": "681b294fb4a40bc2949f66a4b5834d99a48d02db002da16081fc46ae11558a55",
    "optimize.json": "e2432055d4bfd3f4501571c89bfca4437a98db3d6640b57a603b823a97fe0412",
}

# The same at the ends of the --grid-step range, frozen from the numpy grid
# (linspace and argmin) before the Python scan replaced it: the point count
# ceil(2/step) + 1 and the last point forced to 2.0 (at 7e-4, n = 2858 is
# not round(2/step), and n (2/n) is not 2.0)
FROZEN_MAJORANT_GRID_DIGESTS = {
    "verify.1e-6.stdout": "035d1922da5783573df2eab5a36e8d01b3c41db3d9074e598ea1ef96d2f1e57a",
    "verify.1e-6.json": "ef4bf08d50d64c2f5d67d57ca1e08486bce485f0a927be343f2db8a0943ce0b1",
    "verify.0.3.stdout": "ce51c3f8b5bdfd1dbc95f82e57eedfedf3ff49704ac46b77a77c5198cffb35d7",
    "verify.0.3.json": "94b20e08a0fdfc92d299d65c44a971ea80e6f346cf05a5a9e8e64661926b177b",
    "verify.7e-4.stdout": "fce200c6c030854716409ef74cfaa611a21d2794679c71b4bdcf134aec3a7b06",
    "verify.7e-4.json": "8d1035ebec6cd14e20d7a3943334cdfe365120de87d3539e578be541865c9e11",
    "optimize.1e-3.stdout": "9436cddbffc8609aeb8feae0184bcad3480c8a02dd44df17affde9a0d0e07b41",
    "optimize.1e-3.json": "6066964d8f1290c4c68b264af0c588819b229f33493377ff1dd4193e7c7bacd5",
    "optimize.1e-6.stdout": "d2a4c30d99456b8454300f678c6936e4fc6229bd790f52c1162ef5453ad13412",
    "optimize.1e-6.json": "1564a9f2ff1aeef7edf0f246ca07348413617d1bbc47cca72f86e7357f620b6c",
}


def test_majorant_outputs_match_frozen_digests(tmp_path, capsys):
    import hashlib

    argvs = {"verify": ["verify"], "optimize": ["optimize", "--grid-step", "1e-4"],
             **{f"{action}.{step}": [action, "--grid-step", step]
                for action, step in (("verify", "1e-6"), ("verify", "0.3"), ("verify", "7e-4"),
                                     ("optimize", "1e-3"), ("optimize", "1e-6"))}}
    got = {}
    for name, argv in argvs.items():
        out = tmp_path / f"{name}.json"
        assert run(["majorant", *argv, "--out", str(out)]) == 0
        got[f"{name}.stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        got[f"{name}.json"] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == {**FROZEN_MAJORANT_DIGESTS, **FROZEN_MAJORANT_GRID_DIGESTS}


# SHA-256 of each subcommand's stdout on 6-decimal normalized copies of the
# 11a/33a tables at 3000: the float channel, and the rounding of a normalized
# lambda(p) to its integer a_p at the level primes
FROZEN_NORMALIZED_DIGESTS = {
    "lift": "19ec21e6e36ef098498d50d4468aafc1500d11d992cf2208c8759320951a6c31",
    "search": "b8e5df55130e7c2131e83c2acda0a7825029e19e53a289c70587f6ae57548511",
    "witness": "48680561befa55fec1d3144257d777c3d11badb9c3a7adb2e8e3031dac12c3b4",
    "report": "18a2245c356d785498fb22610c1264a2dd55531148b591291283073faa8592ce",
}


def test_normalized_pair_outputs_match_frozen_digests(tmp_path, capsys):
    import hashlib

    from yoshida.curves import ap_table
    from tests.conftest import CURVE_11A, CURVE_33A
    f, g = tmp_path / "f11.txt", tmp_path / "g33.txt"
    for curve, path in ((CURVE_11A, f), (CURVE_33A, g)):
        t = ap_table(curve, 3000)
        path.write_text(f"# level={t.level} weight=2 normalized\n"
                        + "".join(f"{p} {v:.6f}\n"
                                  for p, v in zip(t.prime_array.tolist(), t.lam_array.tolist())))
    pair = ["--f", str(f), "--g", str(g)]
    argvs = {"lift": ["lift", *pair, "--xmax", "3000"],
             "search": ["search", *pair, "--xmax", "3000"],
             "witness": ["witness", *pair, "--x", "3000"],
             "report": ["report", *pair, "--xmax", "3000"]}
    got = {}
    for name, argv in argvs.items():
        assert run(argv) == 0, name
        got[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == FROZEN_NORMALIZED_DIGESTS


def test_huge_prime_row_rejected_fast(tmp_path, capsys):
    # the row above the sieve is tested by Miller-Rabin, not trial division
    # (about 1e9 divisions here), so the gap is reported at once
    form = tmp_path / "F.txt"
    form.write_text("# level=11 weight=2\n2 1\n1000000000000000003 1\n")
    t0 = time.perf_counter()
    assert run(["stats", "--form", str(form), "--y", "10"]) == 1
    assert time.perf_counter() - t0 < 2.0
    assert "missing p=3" in capsys.readouterr().err
