"""Every function of the package is reached by some CLI run.

Each subcommand runs once in process under sys.setprofile, on its success
path and on the error paths that own a function (the first run through the
console entry point cli.main, the others through cli.run), and every
function or method defined in src/yoshida (nested ones included; class
bodies, comprehensions and lambdas are not functions here) must have been
called by one of the runs, unless it is on ALLOWED.
"""

import ast
import sys
from pathlib import Path

import pytest

import yoshida
from yoshida.cli import main, run

SRC = Path(yoshida.__file__).resolve().parent

# defined, and reached by no subcommand on purpose
ALLOWED = {
    "signs.invert_xlog_bound",  # acceptance criterion C12, frozen
    "signs.invert_xlog_bound.phi",
}


def _defined():
    """{(file, first line): dotted name} of every function defined in the
    package.  The first line is that of its first decorator, as in the
    function's code object."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first)] = f"{path.stem}.{name}"
                walk(child, path, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return out


def _commands(tmp):
    """(argv, exit code) of each run: every subcommand, ap above
    MESTRE_MIN_P, then the error paths that own a function."""
    f, g, h = (str(tmp / name) for name in ("f11.txt", "g33.txt", "h11.txt"))
    bad, nf, ng = tmp / "bad.txt", tmp / "nf.txt", tmp / "ng.txt"
    bad.write_text("# level=11 weight=2\n2 -2\n3 x\n")
    nf.write_text("# level=11 weight=2 normalized\n2 0.5\n3 0.25\n5 1.5\n7 0.1\n11 0.301511\n")
    ng.write_text("# level=33 weight=2 normalized\n2 -0.4999999995\n3 0.57735\n5 1.5\n7 0.2\n"
                  "11 0.301511\n")
    pair = ["--f", f, "--g", g]
    return [
        (["ap", "--curve", "0,-1,1,0,0", "--pmax", "1000", "--out", f], 0),
        (["ap", "--curve", "1,1,0,-11,0", "--pmax", "1000", "--out", g], 0),
        (["ap", "--curve", "0,-1,1,-10,-20", "--pmax", "1000", "--out", h], 0),
        (["lift", *pair, "--xmax", "1000", "--out", str(tmp / "l.csv")], 0),
        (["search", *pair, "--xmax", "1000", "--format", "csv"], 0),
        (["stats", "--form", g, "--y", "1000"], 0),
        (["witness", *pair, "--x", "1000"], 0),
        (["majorant", "verify", "--out", str(tmp / "v.json")], 0),
        (["majorant", "optimize", "--out", str(tmp / "o.json")], 0),
        (["report", *pair, "--xmax", "1000"], 0),
        (["lift", "--no-such-flag"], 1),  # _Parser.error
        (["stats", "--form", str(bad), "--y", "10"], 1),  # curves._rows_by_line
        # additive at p = 2: AdditiveReductionError
        (["ap", "--curve", "0,0,0,0,1", "--pmax", "10", "--out", str(tmp / "x.txt")], 2),
        (["lift", "--f", f, "--g", h, "--xmax", "10"], 1),  # one newform twice: lift._same_ap
        (["majorant", "verify", "--delta", "1.1"], 0),  # majorant.parameter
        # lambda_F(2) about +5e-10, inside SIGN_TOL, before the certified
        # negative lambda_F(4): SignUncertainError
        (["search", "--f", str(nf), "--g", str(ng), "--xmax", "10"], 2),
    ]


def _main(argv, monkeypatch):
    """The exit code of the console entry point cli.main, run with argv as
    its command line."""
    monkeypatch.setattr(sys, "argv", ["yoshida", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    return exc.value.code


def test_every_function_is_reached_by_a_subcommand(tmp_path, capsys, monkeypatch):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    for i, (argv, code) in enumerate(_commands(tmp_path)):
        sys.setprofile(profile)
        try:
            # the first run goes through the console entry point, which wraps run
            got = run(argv) if i else _main(argv, monkeypatch)
        finally:
            sys.setprofile(None)
        assert got == code, (argv, capsys.readouterr().err)
    capsys.readouterr()
    resolved = {file: str(Path(file).resolve()) for file, _ in called}
    reached = {(resolved[file], line) for file, line in called}
    defined = _defined()
    missed = {name for key, name in defined.items() if key not in reached}
    assert missed == ALLOWED, sorted(missed ^ ALLOWED)
