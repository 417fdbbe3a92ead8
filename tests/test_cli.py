import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import yoshida
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
    f, g = pair_files
    assert run(["lift", "--f", str(f), "--g", str(g), "--xmax", "0"]) == 1
    assert "xmax must be >= 1" in capsys.readouterr().err


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
            "sys.exit(3 if 'scipy' in sys.modules else 0)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(yoshida.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert "feasible_sufficient: True" in proc.stdout
    assert proc.returncode == 0, proc.stderr


def test_additive_reduction_exits_2(tmp_path, capsys):
    assert run(["ap", "--curve", "0,0,0,5,0", "--pmax", "10", "--level", "10",
                "--out", str(tmp_path / "x.txt")]) == 2
    assert "additive reduction" in capsys.readouterr().err


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
