"""Command-line front end.

Subcommands:
    ap        curve -> coefficient file (point counting)
    lift      two coefficient files -> eigenvalue CSV n,lambda,sign
    search    lift + first negative + bound report
    stats     prime statistics of a single form
    witness   lower-bound branch classification
    majorant  verify | optimize the quartic majorant
    report    full JSON bundle (search + witness + stats)

Exit codes: 0 success, 1 validation/usage error, 2 computation error,
3 I/O error.  Output files are byte-stable across runs: fixed field order,
floats rendered as shortest round-trip decimals.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import curves, lift, majorant, signs
from .errors import ComputationError, ValidationError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; route through our exit-code scheme instead
    def error(self, message):
        raise _UsageError(message)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _jsonable(obj):
    """Recursively convert report objects to JSON-serializable structures."""
    if isinstance(obj, Fraction):
        return {"numerator": obj.numerator, "denominator": obj.denominator}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "__dataclass_fields__"):
        return {k: _jsonable(getattr(obj, k)) for k in obj.__dataclass_fields__}
    return obj


def _flatten(obj, prefix=""):
    """Dotted-key rows for the CSV rendering of a nested report."""
    if isinstance(obj, dict):
        return [row for k, v in obj.items() for row in _flatten(v, f"{prefix}{k}.")]
    if isinstance(obj, (list, tuple)):
        return [row for i, v in enumerate(obj) for row in _flatten(v, f"{prefix}{i}.")]
    return [(prefix[:-1], obj)]


def _write_text(path, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_report(report, path, fmt: str) -> None:
    data = _jsonable(report)
    if fmt == "json":
        _write_text(path, json.dumps(data, indent=2) + "\n")
    else:
        rows = _flatten(data)
        lines = ["key,value"] + [f"{k},{_fmt(v)}" for k, v in rows]
        _write_text(path, "\n".join(lines) + "\n")


def _parse_curve(text: str, level) -> curves.WeierstrassCurve:
    try:
        ai = [int(t) for t in text.split(",")]
    except ValueError:
        raise ValidationError(f"bad curve coefficients {text!r}: expected a1,a2,a3,a4,a6") from None
    return curves.WeierstrassCurve.from_list(ai, declared_level=level)


def _load_pair(args):
    f = curves.load_coeffs(args.f)
    g = curves.load_coeffs(args.g)
    return lift.validate_pair(f, g)


def _build_sequence(args):
    spec = _load_pair(args)
    seq = lift.lift_sequence(spec, args.xmax)
    return spec, seq


# EigenSequence.signs() code -> CSV sign column
_SIGN_CHARS = {-1: "-1", 0: "0", 1: "1", lift.UNCERTAIN: "?"}


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_ap(args) -> int:
    curve = _parse_curve(args.curve, args.level)
    table = curves.ap_table(curve, args.pmax)
    curves.write_coeffs(table, args.out)
    return 0


def _cmd_lift(args) -> int:
    _, seq = _build_sequence(args)
    lines = ["n,lambda,sign"]
    # tolist() hands _fmt Python floats: numpy 2 reprs np.float64 differently
    for n, v, s in zip(seq.index.tolist(), seq.values[seq.index].tolist(), seq.signs().tolist()):
        lines.append(f"{n},{_fmt(v)},{_SIGN_CHARS[s]}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_search(args) -> int:
    spec, seq = _build_sequence(args)
    cfg = signs.BoundConfig(theta=args.theta, epsilon=args.epsilon,
                            conductor_constant=args.conductor_constant)
    report = signs.bound_report(seq, spec, cfg)
    _write_report(report, args.out, args.format)
    return 0


def _stats_record(form, y: int):
    cor = signs.corollary_check(form, y)  # its d1, d2 are the densities at 19/20, 13/10
    return {
        "abs_sum": signs.abs_sum_ratio(form, y),
        "v_density_19_20": cor.d1,
        "v_density_13_10": cor.d2,
        "corollary": cor,
        "bad_factor": signs.bad_factor_bound(form),
        "y": y,
    }


def _cmd_stats(args) -> int:
    form = curves.load_coeffs(args.form)
    _write_report(_stats_record(form, args.y), args.out, args.format)
    return 0


def _cmd_witness(args) -> int:
    spec = _load_pair(args)
    seq = lift.lift_sequence(spec, args.x)
    report = signs.lower_bound_witness(seq, spec, args.x)
    _write_report(report, args.out, args.format)
    return 0


def _certificate_line(cert) -> str:
    return (f"r > 0 on [0, 2] (exact, Sturm): {cert.ok}; grid step {cert.grid_step:g}: "
            f"min_r={_fmt(cert.min_r)} at t={_fmt(cert.argmin)}")


def _cmd_majorant(args) -> int:
    if args.action == "verify":
        params = majorant.MajorantParams(args.delta, args.alpha, args.upsilon)
        suff = majorant.feasible_sufficient(params)
        cert = majorant.feasible_numeric(params, args.grid_step)
        print(f"feasible_sufficient: {suff.ok}")
        for name, chk in suff.checks.items():
            print(f"  {name}: {chk.lhs} < {chk.rhs} -> {chk.ok} (slack {chk.slack})")
        print(_certificate_line(cert))
        if args.out:
            _write_report({"sufficient": suff, "certificate": cert}, args.out, args.format)
    else:
        opt = majorant.optimize_delta(args.grid_step)
        d, a, u = opt.params.as_floats()
        print(f"delta={_fmt(d)} alpha={_fmt(a)} upsilon={_fmt(u)} "
              f"(optimum delta* = 1/5 + 3 sqrt(6)/10 = {_fmt(opt.grid_delta)})")
        print(_certificate_line(opt.certificate))
        if args.out:
            _write_report(opt, args.out, args.format)
    return 0


def _cmd_report(args) -> int:
    spec, seq = _build_sequence(args)
    cfg = signs.BoundConfig(theta=args.theta, epsilon=args.epsilon,
                            conductor_constant=args.conductor_constant)
    rep = signs.bound_report(seq, spec, cfg)
    wit = signs.lower_bound_witness(seq, spec, args.xmax)
    y = args.y if args.y is not None else args.xmax
    bundle = {
        "first_negative_n": rep.first_negative_n,
        "xmax": seq.xmax,
        "q_hat": rep.q_f_hat,
        "theta": rep.theta,
        "epsilon": rep.epsilon,
        "bound_value": rep.bound_value,
        "ratio": rep.ratio,
        "s_samples": rep.s_curve,
        "witness": wit,
        "stats": {"f": _stats_record(spec.f, min(y, spec.f.pmax)),
                  "g": _stats_record(spec.g, min(y, spec.g.pmax))},
    }
    _write_report(bundle, args.out, "json")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _prime_range(text: str) -> int:
    """--y: primes p <= y are counted, so y < 2 would count none."""
    try:
        y = int(text)
    except ValueError:
        y = None
    if y is None or y < 2:
        raise argparse.ArgumentTypeError(f"expected an integer >= 2, got {text!r}")
    return y


def _add_pair_args(sp, with_xmax=True):
    sp.add_argument("--f", required=True, help="coefficient file of the first form")
    sp.add_argument("--g", required=True, help="coefficient file of the second (weight 2) form")
    if with_xmax:
        sp.add_argument("--xmax", type=int, required=True)
    sp.add_argument("--exact", action="store_true",
                    help="accepted and ignored: the exact sign channel is used "
                         "whenever both tables hold integers")


def _add_bound_args(sp):
    sp.add_argument("--theta", type=float, default=0.0)
    sp.add_argument("--epsilon", type=float, default=0.0)
    sp.add_argument("--conductor-constant", dest="conductor_constant", type=float, default=1.0)


def _add_out_args(sp, default_format="json"):
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default=default_format)


def build_parser() -> _Parser:
    ap = _Parser(prog="yoshida", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ap", help="point-count a curve into a coefficient file")
    p.add_argument("--curve", required=True, help="a1,a2,a3,a4,a6")
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--level", type=int, default=None,
                   help="asserted: must equal the conductor computed from the model")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_ap)

    p = sub.add_parser("lift", help="eigenvalue CSV n,lambda,sign for a pair")
    _add_pair_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("search", help="first negative eigenvalue and bound report")
    _add_pair_args(p)
    _add_bound_args(p)
    _add_out_args(p)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("stats", help="prime statistics of one form")
    p.add_argument("--form", required=True, help="coefficient file")
    p.add_argument("--y", type=_prime_range, required=True)
    _add_out_args(p)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("witness", help="lower-bound branch classification")
    _add_pair_args(p, with_xmax=False)
    p.add_argument("--x", type=int, required=True)
    _add_out_args(p)
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("majorant", help="verify or optimize the quartic majorant")
    p.add_argument("action", choices=("verify", "optimize"))
    p.add_argument("--delta", type=Fraction, default=Fraction(11, 10),
                   help="decimal string, parsed exactly (default 11/10)")
    p.add_argument("--alpha", type=Fraction, default=Fraction(-57, 1000))
    p.add_argument("--upsilon", type=Fraction, default=Fraction(-7))
    p.add_argument("--grid-step", dest="grid_step", type=float, default=1e-4,
                   help="grid of the reported minimum of r; the certificate itself is exact")
    p.add_argument("--refine", action="store_true",
                   help="accepted and ignored: the optimum is in closed form")
    _add_out_args(p)
    p.set_defaults(fn=_cmd_majorant)

    p = sub.add_parser("report", help="full JSON bundle for a pair")
    _add_pair_args(p)
    _add_bound_args(p)
    p.add_argument("--y", type=_prime_range, default=None,
                   help="prime statistics range, >= 2 (default xmax)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_report)
    return ap


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
