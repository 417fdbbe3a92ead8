"""The three benchmark workloads: their inputs, CLI commands and output checks.

Each workload is a fixed sequence of `yoshida` subcommands.  Set-up makes the
inputs from the seed (timed as setup_s); prepare_checks builds the oracle
answers once (untimed); check() compares one command's outputs with them and
returns the mismatches found.
"""

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracles
import synth

CURVE_11A = (0, -1, 1, 0, 0)
CURVE_33A = (1, 1, 0, -11, 0)
LEVEL_N = 33  # lcm of the pair's levels 11 and 33

REG_FIRST_NEGATIVE = 2
REG_Q_HAT = 1452.0
REG_RATIO = 0.0524863881081478  # 2 / 1452^(1/2)
DELTA_STAR = 0.9348468421529819  # dense 1e-5-grid LP optimum
CERTIFIED_DELTA_MAX = 1.099


@dataclass
class Cmd:
    """One CLI invocation: label, argv after `yoshida`, files it writes."""

    label: str
    argv: list
    outs: list
    stdout: str = field(default="")  # file name that captures stdout, if any

    @property
    def kind(self) -> str:
        return self.argv[0]


def coprime_count(xmax: int, N: int) -> int:
    """#{n <= xmax : gcd(n, N) = 1} for squarefree N, by inclusion-exclusion."""
    ps = [p for p, _ in oracles.factorize(N)]
    total = 0
    for mask in range(1 << len(ps)):
        d, bits = 1, 0
        for i, p in enumerate(ps):
            if mask >> i & 1:
                d, bits = d * p, bits + 1
        total += (-1) ** bits * (xmax // d)
    return total


def read_table(data: bytes) -> tuple[str, dict[int, int]]:
    """(header, {p: a_p}) of an integer coefficient file."""
    lines = data.decode().splitlines()
    rows = {}
    for line in lines[1:]:
        p, v = line.split()
        rows[int(p)] = int(v)
    return lines[0], rows


class Workload:
    name = ""
    lift_xmax = 0  # xmax of every lift_sequence call, 0 if none

    def __init__(self, work: Path, seed: int, small: bool):
        self.work = work
        self.seed = seed

    def setup(self, program) -> None:
        """Make the inputs; `program` imports modules of the program under test."""

    def prepare_checks(self) -> None:
        pass

    def commands(self) -> list:
        raise NotImplementedError

    def groups(self) -> dict:
        """End-to-end metric name -> labels of the commands it sums."""
        raise NotImplementedError

    def check(self, cmd: Cmd, files: dict) -> list:
        raise NotImplementedError

    def path(self, name: str) -> str:
        return str(self.work / name)


class RegressionPair(Workload):
    """ap for 11a and 33a, then report --exact on the two tables."""

    name = "regression-pair"

    def __init__(self, work, seed, small):
        super().__init__(work, seed, small)
        self.pmax = 2000 if small else 30000
        self.lift_xmax = self.pmax
        self.curves = {"ap11": (CURVE_11A, 11, "f11.txt"), "ap33": (CURVE_33A, 33, "g33.txt")}

    def prepare_checks(self):
        primes = synth.primes_up_to(self.pmax)
        odd = [p for p in primes if p not in (2, 3, 11)]
        sample = sorted(random.Random(self.seed).sample(odd, 8)) + [3, 11]
        self.primes = primes
        self.expected = {label: {p: oracles.ap_char_sum(ai, p) for p in sample}
                         for label, (ai, _, _) in self.curves.items()}

    def commands(self):
        cmds = [Cmd(label, ["ap", "--curve", ",".join(map(str, ai)), "--pmax", str(self.pmax),
                            "--level", str(level), "--out", self.path(out)], [out])
                for label, (ai, level, out) in self.curves.items()]
        cmds.append(Cmd("report", ["report", "--f", self.path("f11.txt"), "--g", self.path("g33.txt"),
                                   "--xmax", str(self.pmax), "--exact",
                                   "--out", self.path("report.json")], ["report.json"]))
        return cmds

    def groups(self):
        return {"ap_s": ["ap11", "ap33"], "report_s": ["report"]}

    def check(self, cmd, files):
        if cmd.kind == "ap":
            _, level, out = self.curves[cmd.label]
            header, rows = read_table(files[out])
            errs = []
            if header != f"# level={level} weight=2":
                errs.append(f"{out}: header {header!r}")
            if list(rows) != self.primes:
                errs.append(f"{out}: primes are not exactly those <= {self.pmax}")
            errs += [f"{out}: a_{p} = {rows.get(p)}, oracle {v}"
                     for p, v in self.expected[cmd.label].items() if rows.get(p) != v]
            return errs
        rep = json.loads(files["report.json"])
        errs = []
        if rep["first_negative_n"] != REG_FIRST_NEGATIVE:
            errs.append(f"first_negative_n {rep['first_negative_n']}")
        if rep["q_hat"] != REG_Q_HAT:
            errs.append(f"q_hat {rep['q_hat']}")
        if not abs(rep["ratio"] - REG_RATIO) <= 1e-12:
            errs.append(f"ratio {rep['ratio']!r}")
        return errs


class SyntheticScan(Workload):
    """lift (float CSV) and report --exact on seeded synthetic 3e5 tables.

    At 1e6 one sequence takes about 13 s, so a run held two of them and the
    run-to-run spread of their median was about a quarter; 3e5 fits six."""

    name = "synthetic-scan"
    oracle_n = 2000

    def __init__(self, work, seed, small):
        super().__init__(work, seed, small)
        self.xmax = 5000 if small else 3 * 10**5
        self.lift_xmax = self.xmax
        self.files = {11: "f11.txt", 33: "g33.txt"}

    def setup(self, program):
        self.tables = synth.generate(self.seed, self.xmax)
        for level, name in self.files.items():
            synth.write_table(self.work / name, level, self.tables[level])
        curves, lift = program("curves"), program("lift")
        lift.validate_pair(curves.load_coeffs(self.path("f11.txt")),
                           curves.load_coeffs(self.path("g33.txt")))

    def prepare_checks(self):
        f, g = self.tables[11], self.tables[33]
        self.oracle = oracles.lift_values(f, g, LEVEL_N, min(self.oracle_n, self.xmax))
        self.first_negative = oracles.first_negative_exact(f, g, LEVEL_N, self.xmax)
        self.rows = coprime_count(self.xmax, LEVEL_N)

    def commands(self):
        pair = ["--f", self.path("f11.txt"), "--g", self.path("g33.txt"), "--xmax", str(self.xmax)]
        return [Cmd("lift", ["lift", *pair, "--out", self.path("lift.csv")], ["lift.csv"]),
                Cmd("report", ["report", *pair, "--exact", "--out", self.path("report.json")],
                    ["report.json"])]

    def groups(self):
        return {"lift_csv_s": ["lift"], "report_s": ["report"]}

    def check(self, cmd, files):
        errs = []
        if cmd.kind == "lift":
            data = files["lift.csv"]
            if not data.startswith(b"n,lambda,sign\n"):
                errs.append("lift.csv: bad header")
            rows = data.count(b"\n") - 1
            if rows != self.rows:
                errs.append(f"lift.csv: {rows} rows, expected {self.rows}")
            head = data[: 64 * (self.oracle_n + 2)].decode().split("\n")[1:]
            seen = {}
            for line in head:
                n, lam, _ = (line.split(",") + ["", "", ""])[:3]
                if not n or int(n) > self.oracle_n:
                    break
                seen[int(n)] = float(lam)
            if list(seen) != list(self.oracle):
                errs.append("lift.csv: indices n <= 2000 differ from those coprime to 33")
            errs += [f"lift.csv: lambda({n}) = {v!r}, oracle {self.oracle[n]!r}"
                     for n, v in seen.items() if n in self.oracle
                     and not abs(v - self.oracle[n]) <= 1e-10]
            return errs
        rep = json.loads(files["report.json"])
        if rep["first_negative_n"] != self.first_negative:
            errs.append(f"first_negative_n {rep['first_negative_n']}, exact oracle {self.first_negative}")
        if rep["q_hat"] != REG_Q_HAT or rep["xmax"] != self.xmax:
            errs.append(f"q_hat {rep['q_hat']} xmax {rep['xmax']}")
        return errs


class MajorantLP(Workload):
    """majorant optimize --refine, then majorant verify of the reference point.

    The commands take no generated input, so the seed does not change them."""

    name = "majorant-lp"

    def __init__(self, work, seed, small):
        super().__init__(work, seed, small)
        self.grid_step = "1e-3" if small else "1e-4"

    def commands(self):
        return [Cmd("optimize", ["majorant", "optimize", "--grid-step", self.grid_step, "--refine",
                                 "--out", self.path("optimize.json")],
                    ["optimize.json"], stdout="optimize.out"),
                Cmd("verify", ["majorant", "verify", "--out", self.path("verify.json")],
                    ["verify.json"], stdout="verify.out")]

    def groups(self):
        return {"majorant_s": ["optimize", "verify"]}

    def check(self, cmd, files):
        errs = []
        if cmd.label == "optimize":
            opt = json.loads(files["optimize.json"])
            if not opt["params"]["delta"] <= CERTIFIED_DELTA_MAX:
                errs.append(f"certified delta {opt['params']['delta']!r} > {CERTIFIED_DELTA_MAX}")
            if not abs(opt["grid_delta"] - DELTA_STAR) <= 1e-5:
                errs.append(f"grid optimum {opt['grid_delta']!r}")
            if not (opt["certificate"]["ok"] and opt["certificate"]["min_r"] > 0):
                errs.append("certificate not ok or min_r <= 0")
            return errs
        first = files["verify.out"].decode().split("\n", 1)[0]
        if first != "feasible_sufficient: True":
            errs.append(f"verify printed {first!r}")
        if not json.loads(files["verify.json"])["sufficient"]["ok"]:
            errs.append("verify.json: sufficient conditions not ok")
        return errs


WORKLOADS = {w.name: w for w in (RegressionPair, SyntheticScan, MajorantLP)}


def lift_count(wl: Workload) -> int:
    """n handled by one lift_sequence call: n <= xmax coprime to N."""
    return coprime_count(wl.lift_xmax, LEVEL_N) if wl.lift_xmax else 0

