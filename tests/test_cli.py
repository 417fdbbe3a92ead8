import json
import math
import os
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
    assert nf.level == 11 and nf.coeffs[2] == -2
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
    ["search", "--epsilon", "nan"],
    ["search", "--epsilon", "inf"],
    ["report", "--epsilon", "nan"],
    ["search", "--conductor-constant", "nan"],
    ["report", "--conductor-constant", "nan"],
    ["search", "--conductor-constant", "inf"],
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


@pytest.mark.parametrize("cmd", ["lift", "stats"])
def test_nan_at_level_prime_exits_1(cmd, tmp_path, capsys):
    # lambda(11) = nan at the level prime: abs(nan) <= 1 is False, so the
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


def test_unknown_flag_exits_1(capsys):
    assert run(["--nonsense"]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_file_exits_1(tmp_path, capsys):
    # FileNotFoundError is an OSError -> io error exit code
    assert run(["lift", "--f", str(tmp_path / "nope.txt"), "--g", str(tmp_path / "nope.txt"),
                "--xmax", "10"]) == 3


def test_far_prime_in_short_table_rejected_fast(tmp_path, capsys):
    # two rows cannot reach 1000000007 without a gap; no sieve that far is made
    form = tmp_path / "far.txt"
    form.write_text("# level=11 weight=2\n2 1\n1000000007 3\n")
    t0 = time.perf_counter()
    assert run(["stats", "--form", str(form), "--y", "10"]) == 1
    assert time.perf_counter() - t0 < 0.5
    assert "prime table has a gap: missing p=3" in capsys.readouterr().err


def test_import_and_majorant_verify_leave_scipy_unloaded():
    code = ("import sys, yoshida\n"
            "from yoshida.cli import run\n"
            "assert run(['majorant', 'verify']) == 0\n"
            "assert run(['majorant', 'optimize', '--grid-step', '1e-4', '--refine']) == 0\n"
            "sys.exit(3 if 'scipy' in sys.modules else 0)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(yoshida.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert "feasible_sufficient: True" in proc.stdout
    assert proc.returncode == 0, proc.stderr


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
    # p^((k-2)/2) at p near 500 is beyond binary64: lam() would raise OverflowError
    ("level=11 weight=240", {**dict.fromkeys(primes.primes_up_to(600).tolist(), 0),
                             11: 11**119}, "500"),
    # 11^296 sqrt(11) is inf in binary64: lam(11) would be -0.0, not -11^(-1/2)
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


def test_witness_json(pair_files, tmp_path):
    f, g = pair_files
    out = tmp_path / "wit.json"
    assert run(["witness", "--f", str(f), "--g", str(g), "--x", "100", "--exact",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert set(rep["counts"]) == {"v1", "case_i", "case_ii", "outside", "hypothesis_violated"}


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


def test_majorant_outputs_match_frozen_digests(tmp_path, capsys):
    import hashlib

    got = {}
    for action, argv in (("verify", []), ("optimize", ["--grid-step", "1e-4"])):
        out = tmp_path / f"{action}.json"
        assert run(["majorant", action, *argv, "--out", str(out)]) == 0
        got[f"{action}.stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        got[f"{action}.json"] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == FROZEN_MAJORANT_DIGESTS


def test_huge_prime_row_rejected_fast(tmp_path, capsys):
    # the row above the sieve is tested by Miller-Rabin, not trial division
    # (about 1e9 divisions here), so the gap is reported at once
    form = tmp_path / "F.txt"
    form.write_text("# level=11 weight=2\n2 1\n1000000000000000003 1\n")
    t0 = time.perf_counter()
    assert run(["stats", "--form", str(form), "--y", "10"]) == 1
    assert time.perf_counter() - t0 < 2.0
    assert "missing p=3" in capsys.readouterr().err
