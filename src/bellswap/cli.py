"""Command-line surface.

Subcommands:

- decompose: print the double Bell coefficients of the rotated two-singlet
  state, closed form next to the brute-force decomposition.
- verify-qm: sweep random plus special-phase settings and check every exact
  prediction; JSON report on stdout.
- simulate: sample Bell/polarization coincidences to CSV, a fixed chunk of
  events at a time.
- refute: build the two-setting contradiction for a sector and certify it
  unsatisfiable ("--fig2" compiles the same settings for the double Bell
  arrangement instead, which is satisfiable).
- compile: turn an angle-settings file into a constraint-system JSON file.
- solve: decide a constraint-system JSON file and verify the answer.

Exit codes: 0 = checks passed / expected result, 1 = violation or unexpected
result, 2 = usage error, unreadable input or unwritable output.  Angles are
radians unless --degrees is given.  ``serialize`` reads input files and raises
only ValueError on a malformed one.  ``main`` builds the parser once per
process and finds each command's ``cmd_*`` by name at call time, so a wrapped
or patched one is the one that runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext

import numpy as np

from .correlations import (
    DEFAULT_ANGLE_TOL,
    MAX_ANGLE_TOL,
    _correlation_report,
    classify_zeta,
    sample_events,
    violating_outcomes,
    zeta,
)
from .lhv import (
    HiddenContext,
    apply_factorization,
    compile_bell_polarization,
    compile_double_bell,
    contradiction_instance,
    contradiction_settings,
)
from .quantum import (
    BELL_ORDER,
    AngleSettings,
    bell_bell_coefficients,
    bell_bell_coefficients_closed_form,
)
from .serialize import (
    EVENT_CHUNK,
    FORMAT_VERSION,
    dump_constraint_set,
    load_constraint_set,
    load_settings,
    solve_result_to_dict,
    write_events_csv,
)
from .solver import SolveStatus, enumerate_solve, gf2_solve, verify_certificate
from .verification import CLOSED_FORM_TOL, run_qm_verification

_METHODS = {"enumerate": enumerate_solve, "gf2": gf2_solve}
_parser: argparse.ArgumentParser | None = None  # built by the first main() call


def _to_radians(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _checked(convert, allowed, description: str):
    """An argparse type: ``convert`` the text, then require ``allowed``; any
    failure exits 2 with one line saying what the flag accepts."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not allowed(value):
            raise argparse.ArgumentTypeError(f"must be {description}, got {text}")
        return value

    return parse


_POSITIVE_INT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_NONNEGATIVE_INT = _checked(int, lambda v: v >= 0, "an integer >= 0")
_FINITE_FLOAT = _checked(float, math.isfinite, "a finite number")
_PHASE_TOL = _checked(float, lambda v: 0 < v < MAX_ANGLE_TOL, "> 0 and < pi/4")
_TOL_HELP = "phase tolerance (rad), > 0 and < pi/4"


def _cannot_write(exc: OSError) -> int:
    print(f"error: cannot write output: {exc}", file=sys.stderr)
    return 2


def _angles_from_args(args: argparse.Namespace) -> AngleSettings:
    return AngleSettings(
        _to_radians(args.phi1, args.degrees),
        _to_radians(args.phi2, args.degrees),
        _to_radians(args.phi3, args.degrees),
        _to_radians(args.phi4, args.degrees),
    )


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _print_bell_matrix(title: str, matrix: np.ndarray) -> None:
    print(title)
    print("          " + "".join(f"{b.value:>10}" for b in BELL_ORDER))
    for i, bell in enumerate(BELL_ORDER):
        cells = "".join(f"{matrix[i, j].real:>10.6f}" for j in range(4))
        print(f"  {bell.value:<8}{cells}")


def cmd_decompose(args: argparse.Namespace) -> int:
    angles = _angles_from_args(args)
    setting = np.array([angles.as_tuple()])
    numeric = bell_bell_coefficients(setting)[0]
    closed = bell_bell_coefficients_closed_form(setting)[0]
    deviation = float(np.max(np.abs(closed - numeric)))
    probabilities = np.abs(numeric) ** 2
    xi, eta = zeta(angles, +1), zeta(angles, -1)
    correlations = _correlation_report(angles, numeric, args.tol)
    if args.json:
        _print_json(
            {
                "format_version": FORMAT_VERSION,
                "command": "decompose",
                "angles": list(angles.as_tuple()),
                "xi": xi,
                "eta": eta,
                "closed_form": closed.tolist(),
                "numeric": numeric.real.tolist(),
                "max_abs_deviation": deviation,
                "joint_bell_probabilities": probabilities.tolist(),
                "perfect_correlations": correlations.to_dict(),
            }
        )
    else:
        print(f"angles (rad): {angles.as_tuple()}")
        print(f"xi  = {xi!r}")
        print(f"eta = {eta!r}")
        _print_bell_matrix("closed-form coefficients (rows bc, cols ad):", closed)
        _print_bell_matrix("numeric coefficients:", numeric)
        print(f"max |closed - numeric| = {deviation:.3e}")
        _print_bell_matrix("joint Bell probabilities:", probabilities)
        for sector in correlations.sectors:
            if sector.predicted_product is None:
                verdict = "no perfect correlation at this setting"
            else:
                verdict = (
                    f"product a*F*d = {sector.predicted_product:+d} with certainty"
                    f" (residual {sector.violation_probability:.1e})"
                )
            print(f"sector kappa={sector.kappa:+d}: zeta = {sector.zeta!r}: {verdict}")
    return 0 if deviation < CLOSED_FORM_TOL else 1


def cmd_verify_qm(args: argparse.Namespace) -> int:
    # --out is opened before the sweep, so an unwritable path fails at once
    try:
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext() as fp:
            report = run_qm_verification(grid=args.grid, tol=args.tol, seed=args.seed)
            text = json.dumps(report, indent=2)
            if fp is not None:
                fp.write(text + "\n")
    except OSError as exc:
        return _cannot_write(exc)
    print(text)
    return 0 if report["passed"] else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    angles = _angles_from_args(args)
    violations = 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fp:
            rng = np.random.default_rng(args.seed)
            violating = violating_outcomes(angles, args.tol)
            # one chunk at --events 0 too: it writes the header row
            for start in range(0, args.events, EVENT_CHUNK) or [0]:
                outcomes = sample_events(angles, min(EVENT_CHUNK, args.events - start), rng)
                write_events_csv(fp, angles, outcomes, start)
                violations += int(np.count_nonzero(violating[outcomes]))
    except OSError as exc:
        return _cannot_write(exc)
    print(f"wrote {args.events} events to {args.out}; sector-product violations: {violations}")
    return 0 if violations == 0 else 1


def cmd_refute(args: argparse.Namespace) -> int:
    alpha = _to_radians(args.alpha, args.degrees)
    beta = _to_radians(args.beta, args.degrees)
    settings = list(contradiction_settings(alpha, beta, args.kappa))
    # at large angles the pi/4 offsets are lost in rounding and the settings
    # no longer sit at zeta = 0 and -pi/2
    if [classify_zeta(s, args.kappa).predicted_product for s in settings] != [+1, -1]:
        print(
            f"error: at alpha={alpha!r}, beta={beta!r} rad the contradiction settings"
            " lose their pi/4 offsets in rounding; use angles of smaller magnitude",
            file=sys.stderr,
        )
        return 2
    if args.fig2:
        context = HiddenContext(kappa=args.kappa, label="double-bell variant")
        cs = compile_double_bell(settings, context)
        expected = SolveStatus.SAT
        arrangement = "double-bell"
    else:
        cs = contradiction_instance(alpha, beta, args.kappa)
        expected = SolveStatus.UNSAT
        arrangement = "bell-polarization-factored"
    result = _METHODS[args.method](cs)
    verified = verify_certificate(cs, result)
    doc = {
        "format_version": FORMAT_VERSION,
        "command": "refute",
        "alpha": alpha,
        "beta": beta,
        "kappa": args.kappa,
        "arrangement": arrangement,
        "method": args.method,
    }
    doc.update(solve_result_to_dict(cs, result, verified))
    _print_json(doc)
    return 0 if (result.status is expected and verified) else 1


def cmd_compile(args: argparse.Namespace) -> int:
    try:
        with open(args.settings, "r", encoding="utf-8") as fp:
            settings = load_settings(fp, args.degrees)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read settings file: {exc}", file=sys.stderr)
        return 2
    context = HiddenContext(kappa=args.kappa, label=args.label)
    compile_fig = compile_bell_polarization if args.fig == 1 else compile_double_bell
    try:
        with open(args.out, "w", encoding="utf-8") as fp:
            cs = compile_fig(settings, context, tol=args.tol)
            if args.factorize:
                cs = apply_factorization(cs)
            dump_constraint_set(cs, fp)
    except OSError as exc:
        return _cannot_write(exc)
    print(
        f"compiled {len(settings)} settings (fig {args.fig}, kappa {args.kappa:+d})"
        f" -> {cs.n_variables} variables, {len(cs.constraints)} constraints: {args.out}"
    )
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        with open(args.infile, "r", encoding="utf-8") as fp:
            cs = load_constraint_set(fp)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read constraint file: {exc}", file=sys.stderr)
        return 2
    try:
        result = _METHODS[args.method](cs)
    except ValueError as exc:  # the enumeration guard
        print(f"error: {exc}; use --method gf2", file=sys.stderr)
        return 2
    verified = verify_certificate(cs, result)
    doc = {
        "format_version": FORMAT_VERSION,
        "command": "solve",
        "method": args.method,
        "context": {"kappa": cs.context.kappa, "label": cs.context.label},
        "n_variables": cs.n_variables,
        "n_constraints": len(cs.constraints),
    }
    doc.update(solve_result_to_dict(cs, result, verified))
    _print_json(doc)
    if not verified:
        return 1
    if args.expect is not None and args.expect != result.status.value:
        return 1
    return 0


def _add_angle_flags(parser: argparse.ArgumentParser) -> None:
    for name in ("phi1", "phi2", "phi3", "phi4"):
        parser.add_argument(
            f"--{name}", type=_FINITE_FLOAT, default=0.0, help=f"rotation angle {name}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellswap",
        description="Entanglement-swapping correlation simulator and local-model refuter.",
        epilog="exit codes: 0 ok, 1 violation/unexpected result, 2 usage error",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="double Bell coefficients of the rotated state")
    _add_angle_flags(p)
    p.add_argument("--degrees", action="store_true", help="angles are degrees")
    p.add_argument("--tol", type=_PHASE_TOL, default=DEFAULT_ANGLE_TOL, help=_TOL_HELP)
    p.add_argument("--json", action="store_true", help="JSON output instead of tables")

    p = sub.add_parser("verify-qm", help="check all exact predictions over a sweep")
    p.add_argument("--grid", type=_POSITIVE_INT, default=4, help="random sweep size is grid**4")
    p.add_argument("--tol", type=_PHASE_TOL, default=DEFAULT_ANGLE_TOL, help=_TOL_HELP)
    p.add_argument("--seed", type=_NONNEGATIVE_INT, default=12345, help="sweep RNG seed")
    p.add_argument("--out", help="also write the JSON report here")

    p = sub.add_parser("simulate", help="sample Bell/polarization events to CSV")
    _add_angle_flags(p)
    p.add_argument("--degrees", action="store_true", help="angles are degrees")
    p.add_argument("--events", type=_NONNEGATIVE_INT, default=1000, help="number of events")
    p.add_argument("--seed", type=_NONNEGATIVE_INT, default=42, help="sampler seed")
    p.add_argument("--tol", type=_PHASE_TOL, default=DEFAULT_ANGLE_TOL, help=_TOL_HELP)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("refute", help="certify the two-setting contradiction")
    p.add_argument(
        "--alpha", type=_FINITE_FLOAT, default=0.0, help="base angle for photon a's side"
    )
    p.add_argument(
        "--beta", type=_FINITE_FLOAT, default=0.0, help="base angle for photon d's side"
    )
    p.add_argument("--kappa", type=int, choices=(-1, 1), default=1, help="sector parity")
    p.add_argument("--method", choices=sorted(_METHODS), default="enumerate")
    p.add_argument("--degrees", action="store_true", help="angles are degrees")
    p.add_argument(
        "--fig2",
        action="store_true",
        help="compile the double Bell arrangement instead (satisfiable)",
    )

    p = sub.add_parser("compile", help="compile settings into a constraint system")
    p.add_argument("--settings", required=True, help="JSON file with angle settings")
    p.add_argument("--kappa", type=int, choices=(-1, 1), required=True, help="sector parity")
    p.add_argument(
        "--fig",
        type=int,
        choices=(1, 2),
        default=1,
        help="arrangement: 1 = Bell analyzer on (b,c) plus polarizers on a and d,"
        " 2 = Bell analyzers on both pairs",
    )
    p.add_argument("--factorize", action="store_true", help="adjoin F = A*D constraints")
    p.add_argument("--tol", type=_PHASE_TOL, default=DEFAULT_ANGLE_TOL, help=_TOL_HELP)
    p.add_argument("--degrees", action="store_true", help="settings file is in degrees")
    p.add_argument("--label", default="", help="context label")
    p.add_argument("--out", required=True, help="output JSON path")

    p = sub.add_parser("solve", help="decide a constraint-system file")
    p.add_argument("--in", dest="infile", required=True, help="constraint-system JSON")
    p.add_argument("--method", choices=sorted(_METHODS), default="enumerate")
    p.add_argument("--expect", choices=("sat", "unsat"), help="fail unless this status")

    return parser


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    return globals()["cmd_" + args.command.replace("-", "_")](args)


if __name__ == "__main__":
    sys.exit(main())
