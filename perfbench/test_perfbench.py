"""The benchmark's own tests: generator, oracles, smoke runs, failure paths.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import synth
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _trial_primes(n):
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def test_generator_deterministic_and_seeded():
    assert synth.generate(7, 3000) == synth.generate(7, 3000)
    assert synth.generate(7, 3000) != synth.generate(8, 3000)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_generated_tables_are_valid_lift_inputs(seed):
    tables = synth.generate(seed, 5000)
    primes = _trial_primes(5000)
    for level, table in tables.items():
        assert list(table) == primes  # gap-free, ascending
        for p, a in table.items():
            if level % p == 0:
                assert a in (-1, 1)
            else:
                assert a * a <= 4 * p
    # w_11 = -a_11 must agree for the pair to be a lift input
    assert tables[11][11] == tables[33][11]


def test_char_sum_oracle_matches_known_values():
    # 11a: a_2 = -2 needs p odd, so check odd primes (LMFDB 11.a2)
    assert [oracles.ap_char_sum(workloads.CURVE_11A, p) for p in (3, 5, 7, 13)] == [-1, 1, -2, 4]
    assert oracles.ap_char_sum(workloads.CURVE_11A, 11) == 1  # split multiplicative


def test_exact_first_negative_agrees_with_convolution():
    for seed in range(5):
        t = synth.generate(seed, 3000)
        vals = oracles.lift_values(t[11], t[33], workloads.LEVEL_N, 3000)
        exact = oracles.first_negative_exact(t[11], t[33], workloads.LEVEL_N, 3000)
        first = next((n for n, v in vals.items() if v < -1e-9), None)
        assert exact == first


def test_coprime_count():
    assert workloads.coprime_count(1000, 33) == sum(1 for n in range(1, 1001) if math.gcd(n, 33) == 1)


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "1", "--seconds", "0.1",
                   "--trace", str(trace), "--small"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_table_fails(monkeypatch, capsys):
    original = workloads.SyntheticScan.setup

    def corrupt_after_setup(self, program):
        original(self, program)
        table = dict(self.tables[33])
        table[5] = -table[5] if table[5] else 1  # still inside the Hasse bound
        synth.write_table(self.work / "g33.txt", 33, table)

    monkeypatch.setattr(workloads.SyntheticScan, "setup", corrupt_after_setup)
    code = run.main(["--workload", "synthetic-scan", "--seed", "1", "--seconds", "0.1",
                     "--trace", "0", "--small"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] > 0


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "majorant-lp", "--seed", "1", "--seconds", "1", "--trace", "0"],
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
