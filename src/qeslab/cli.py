"""Command-line front end: verification suites, spectra, sweeps, scans.

Subcommands: verify, spectrum, charpoly, sweep, degeneracy, crosscheck,
delta4-scan.  Exit codes: 0 success, 1 verification failure or broken
numeric validation, 2 usage error.  Couplings are exact rationals given
as `p/q` strings; decimal floats are rejected wherever exactness
matters.  JSON and text renderings of the same run carry identical
numeric values (floats are rounded to 12 significant digits once,
before formatting).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from qeslab import spectral, verify
from qeslab.exactnum import ParamPoly
from qeslab.spectral import format_sig


def rational(text: str) -> Fraction:
    """Exact-mode argument: integers or p/q, never decimal floats."""
    cleaned = text.strip()
    if any(ch in cleaned for ch in ".eE"):
        raise argparse.ArgumentTypeError(
            f"{text!r} looks like a float; write an exact rational like 1/2"
        )
    try:
        return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def round12(value: float) -> float:
    return float(format_sig(value))


def rat_str(value: Fraction) -> str:
    return str(value)


def _emit(payload: dict, args, render_text) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, indent=2))
    else:
        render_text(payload)


def _coupling(args, n: int):
    """Resolve the (k0, c) pair from whichever flag was given."""
    if getattr(args, "c", None) is not None:
        c = args.c
        return -c / (4 * n), c
    k0 = args.k0
    return k0, -4 * n * k0


def _coupling_header(n: int, k0: Fraction, c: Fraction) -> str:
    return f"# n={n} c={rat_str(c)} (k0={rat_str(k0)}; c = -4*n*k0)"


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def cmd_verify(args) -> int:
    reports = verify.default_suite(
        n_max=args.n_max,
        delta_max=args.delta_max,
        inject_fault=args.inject_fault,
    )
    reports.extend(spectral.hamiltonian_leakage_reports(args.n_max))
    for n in range(2, min(args.n_max, 6) + 1):
        reports.extend(spectral.reflection_check(n))
    bad = verify.failures(reports)
    if not args.quiet:
        for report in reports:
            print(report.line())
    else:
        for report in bad:
            print(report.line())
    print(f"# reports={len(reports)} failures={len(bad)}")
    return 1 if bad else 0


# ----------------------------------------------------------------------
# spectrum / charpoly
# ----------------------------------------------------------------------

def _poly_payload(poly: ParamPoly) -> dict:
    coeffs = {}
    for power in range(poly.degree + 1):
        coeff = poly.coeff(power)
        if isinstance(coeff, ParamPoly) or coeff:
            coeffs[str(power)] = str(coeff)
    return {"text": str(poly), "coefficients": coeffs}


def _coeff_list(poly: ParamPoly):
    if all(isinstance(coeff, Fraction) for coeff in poly.coeffs):
        return [rat_str(coeff) for coeff in poly.coeffs]
    return [round12(float(coeff)) for coeff in poly.coeffs]


def _charpoly_payload(n: int, variable: str) -> dict:
    poly = spectral.symbolic_char_poly(n, variable)
    return {"n": n, "variable": variable, "char_poly": _poly_payload(poly)}


def _render_charpoly(payload: dict) -> None:
    print(f"# n={payload['n']} characteristic polynomial, coefficients in "
          f"{payload['variable']}")
    print(payload["char_poly"]["text"])
    for power, coeff in payload["char_poly"]["coefficients"].items():
        print(f"  lam^{power}: {coeff}")


def cmd_charpoly(args) -> int:
    _emit(_charpoly_payload(args.n, args.variable), args, _render_charpoly)
    return 0


def cmd_spectrum(args) -> int:
    if args.charpoly:
        _emit(_charpoly_payload(args.n, "c"), args, _render_charpoly)
        return 0
    if (args.c is None) == (args.k0 is None):
        print("error: need exactly one of --c / --k0", file=sys.stderr)
        return 2
    k0, c = _coupling(args, args.n)
    spec = spectral.HamiltonianSpec(args.n, k0)
    spectrum = spectral.algebraic_spectrum(spec)
    funcs = spectral.eigenvectors_y(spec, spectrum)
    levels = []
    for lv in spectrum.levels:
        members = [f for f in funcs if f.level is lv]
        levels.append(
            {
                "value": round12(lv.value),
                "exact": rat_str(lv.exact) if lv.exact is not None else None,
                "multiplicity": lv.multiplicity,
                "vectors": [
                    {
                        "nodes": list(f.nodes) if f.nodes is not None else None,
                        "subspace_dim": f.subspace_dim,
                        "top_y": _coeff_list(f.top_y),
                        "bottom_y": _coeff_list(f.bottom_y),
                    }
                    for f in members
                ],
            }
        )
    payload = {
        "n": args.n,
        "c": rat_str(c),
        "k0": rat_str(k0),
        "levels": levels,
    }

    def render(pl):
        print(_coupling_header(pl["n"], Fraction(pl["k0"]), Fraction(pl["c"])))
        for level in pl["levels"]:
            exact = f" exact={level['exact']}" if level["exact"] else ""
            print(
                f"E = {format_sig(level['value'])}  "
                f"multiplicity={level['multiplicity']}{exact}"
            )
            for vec in level["vectors"]:
                if vec["nodes"] is None:
                    marker = f"subspace_dim={vec['subspace_dim']} (nodes skipped)"
                else:
                    marker = "nodes=(%s)" % ",".join(
                        "-" if k is None else str(k) for k in vec["nodes"]
                    )
                print(f"  {marker}")
                print(f"    top_y    coeffs: {vec['top_y']}")
                print(f"    bottom_y coeffs: {vec['bottom_y']}")

    _emit(payload, args, render)
    return 0


# ----------------------------------------------------------------------
# sweep / degeneracy / crosscheck / delta4-scan
# ----------------------------------------------------------------------

def cmd_sweep(args) -> int:
    if args.steps < 2:
        print("error: --steps must be at least 2", file=sys.stderr)
        return 2
    result = spectral.sweep(args.n, args.c_min, args.c_max, args.steps)
    if args.branches:
        two = len(result.rows[0][1]) // 2
        rows = [
            (c, list(mags) + [mags[-1]] * (two - len(mags)))
            for c, mags in result.abs_branches()
        ]
        text = spectral.csv_text("absE", rows)
    else:
        text = spectral.csv_text("E", result.rows)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_degeneracy(args) -> int:
    try:
        result = spectral.find_degeneracy(args.n, args.c_min, args.c_max)
    except spectral.NoDegeneracyError as exc:
        print(f"no-degeneracy: {exc}", file=sys.stderr)
        return 1
    payload = {
        "n": args.n,
        "c_star": round12(result.c_star),
        "gap": round12(result.gap),
        "lower_level": result.lower_level,
        "upper_level": result.upper_level,
        "levels": [round12(v) for v in result.levels],
    }

    def render(pl):
        print(
            f"c* = {format_sig(pl['c_star'])}  gap = {format_sig(pl['gap'])}  "
            f"levels {pl['lower_level']} and {pl['upper_level']} collide"
        )
        print("levels at c*: "
              + ", ".join(format_sig(v) for v in pl["levels"]))

    _emit(payload, args, render)
    return 0


def cmd_crosscheck(args) -> int:
    if (args.c is None) == (args.k0 is None):
        print("error: need exactly one of --c / --k0", file=sys.stderr)
        return 2
    k0, c = _coupling(args, args.n)
    spec = spectral.HamiltonianSpec(args.n, k0)
    result = spectral.numeric_crosscheck(
        spec, grid_points=args.grid, box_half_width=args.box
    )
    payload = {
        "n": args.n,
        "c": rat_str(c),
        "k0": rat_str(k0),
        "grid_points": result.grid_points,
        "box_half_width": result.box_half_width,
        "rows": [
            {
                "algebraic": round12(r.algebraic),
                "numeric": round12(r.numeric),
                "diff": round12(r.diff),
            }
            for r in result.rows
        ],
        "max_diff": round12(result.max_diff),
        "boundary_amplitude": round12(result.boundary_amplitude),
    }

    def render(pl):
        print(_coupling_header(pl["n"], Fraction(pl["k0"]), Fraction(pl["c"])))
        print(f"# grid={pl['grid_points']} "
              f"box={format_sig(pl['box_half_width'])}")
        print("algebraic,numeric,abs_diff")
        for row in pl["rows"]:
            print(",".join(
                format_sig(row[key]) for key in ("algebraic", "numeric", "diff")
            ))
        print(f"max_diff = {format_sig(pl['max_diff'])}")
        print(f"boundary_amplitude = {format_sig(pl['boundary_amplitude'])}")

    _emit(payload, args, render)
    if result.boundary_amplitude > 1e-6:
        print("error: boundary amplitude too large; box too small",
              file=sys.stderr)
        return 1
    return 0


def cmd_delta4_scan(args) -> int:
    reports = verify.delta4_scan(n=args.n)
    counterexamples = [
        r for r in reports if r.residual_quadratic_norm == 0
    ]
    for report in reports:
        print(report.line())
    print(
        f"# points={len(reports)} counterexamples={len(counterexamples)}"
    )
    return 1 if counterexamples else 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeslab",
        description=(
            "Exact-arithmetic laboratory for the graded operator families "
            "and the coupled sextic operator pair"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="run every exact relation suite over the (n, gap) box"
    )
    p_verify.add_argument("--n-max", type=int, default=12)
    p_verify.add_argument("--delta-max", type=int, default=4)
    p_verify.add_argument(
        "--inject-fault",
        metavar="NAME",
        default=None,
        help="perturb one named generator (e.g. T+, QBAR2) to prove the "
        "suite is sensitive",
    )
    p_verify.add_argument(
        "--quiet", action="store_true", help="print only failures and summary"
    )
    p_verify.set_defaults(func=cmd_verify)

    def add_coupling(p, required=False):
        group = p.add_mutually_exclusive_group(required=required)
        group.add_argument("--c", type=rational, default=None,
                           help="coupling c as an exact rational p/q")
        group.add_argument("--k0", type=rational, default=None,
                           help="raw parameter k0 as an exact rational p/q")

    p_spectrum = sub.add_parser(
        "spectrum", help="algebraic levels, eigenvectors and node counts"
    )
    p_spectrum.add_argument("--n", type=int, required=True)
    add_coupling(p_spectrum)
    p_spectrum.add_argument(
        "--charpoly", action="store_true",
        help="print the symbolic characteristic polynomial in c instead",
    )
    p_spectrum.add_argument("--format", choices=("text", "json"),
                            default="text")
    p_spectrum.set_defaults(func=cmd_spectrum)

    p_charpoly = sub.add_parser(
        "charpoly", help="symbolic characteristic polynomial"
    )
    p_charpoly.add_argument("--n", type=int, required=True)
    p_charpoly.add_argument("--variable", choices=("c", "k0"), default="c")
    p_charpoly.add_argument("--format", choices=("text", "json"),
                            default="text")
    p_charpoly.set_defaults(func=cmd_charpoly)

    p_sweep = sub.add_parser(
        "sweep", help="levels on a uniform coupling grid, CSV output"
    )
    p_sweep.add_argument("--n", type=int, required=True)
    p_sweep.add_argument("--c-min", type=rational, required=True)
    p_sweep.add_argument("--c-max", type=rational, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_sweep.add_argument(
        "--branches", action="store_true",
        help="emit |E| magnitude branches instead of signed levels",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_deg = sub.add_parser(
        "degeneracy", help="locate the level collision inside a coupling bracket"
    )
    p_deg.add_argument("--n", type=int, required=True)
    p_deg.add_argument("--c-min", type=rational, required=True)
    p_deg.add_argument("--c-max", type=rational, required=True)
    p_deg.add_argument("--format", choices=("text", "json"), default="text")
    p_deg.set_defaults(func=cmd_degeneracy)

    p_cross = sub.add_parser(
        "crosscheck", help="finite-difference validation of the algebraic levels"
    )
    p_cross.add_argument("--n", type=int, required=True)
    add_coupling(p_cross, required=True)
    p_cross.add_argument("--grid", type=int, default=800)
    p_cross.add_argument("--box", type=float, default=4.5)
    p_cross.add_argument("--format", choices=("text", "json"), default="text")
    p_cross.set_defaults(func=cmd_crosscheck)

    p_scan = sub.add_parser(
        "delta4-scan",
        help="grid certificate that the gap-4 mixed quintet never closes",
    )
    p_scan.add_argument("--n", type=int, default=6)
    p_scan.set_defaults(func=cmd_delta4_scan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
