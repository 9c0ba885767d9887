"""Command-line surface.

Subcommands:

- decompose: print the double Bell coefficients of the rotated two-singlet
  state, closed form next to the brute-force decomposition, and check each
  sector's perfect correlation.
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
result, 2 = usage error, unreadable input or unwritable output (an --out path,
or a standard output whose reader has gone or whose disk is full).  Angles are
radians unless --degrees is given; only this module converts degrees.
``serialize`` reads input files and raises only ValueError on a malformed
one.  A command reports an unreadable input where it reads it, and opens its
--out file before its work; the OSError of any write reaches ``main``, which
alone turns it into exit 2 with one line.  ``main`` builds the parser once
per process and finds each command's ``cmd_*`` by name at call time, so a
wrapped or patched one is the one that runs.  It pauses the cyclic garbage
collector while the command runs, since commands build large acyclic data
(parsed JSON, columns, tuples) that collector passes would only rescan, and
leaves it as it found it; the library functions do not pause it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from contextlib import nullcontext

import numpy as np

from .correlations import (
    DEFAULT_ANGLE_TOL,
    MAX_ANGLE_TOL,
    MAX_COMPILE_TOL,
    _correlation_report,
    sample_events,
    violating_outcomes,
)
from .lhv import (
    _MAX_NUMBER,
    ConstraintSet,
    apply_factorization,
    compile_bell_polarization,
    compile_double_bell,
    contradiction_instance,
    contradiction_settings,
)
from .quantum import BELL_ORDER, bell_bell_coefficients, bell_bell_coefficients_closed_form
from .serialize import (
    EVENT_CHUNK,
    FORMAT_VERSION,
    dump_constraint_set,
    load_constraint_set,
    load_settings,
    solve_result_to_dict,
    write_events_csv,
)
from .solver import enumerate_solve, gf2_solve, verify_certificate
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
_COMPILE_TOL = _checked(
    float,
    lambda v: 0 < v <= MAX_COMPILE_TOL,
    f"> 0 and <= {MAX_COMPILE_TOL!r}, the widest phase window whose constraints stay certain",
)


def _angles_from_args(args: argparse.Namespace) -> tuple[float, float, float, float] | None:
    """The angle flags in radians, as one setting's row of Python floats;
    None, after one line on stderr, if one is beyond the bound that a
    settings file's numbers have."""
    phis = [args.phi1, args.phi2, args.phi3, args.phi4]
    if abs(peak := max(phis, key=abs)) > _MAX_NUMBER:
        print(f"error: angles must be within +-{_MAX_NUMBER:.2g}, got {peak!r}", file=sys.stderr)
        return None
    return tuple(_to_radians(phi, args.degrees) for phi in phis)


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _print_bell_matrix(title: str, matrix: np.ndarray) -> None:
    print(title)
    print("          " + "".join(f"{b.value:>10}" for b in BELL_ORDER))
    for i, bell in enumerate(BELL_ORDER):
        cells = "".join(f"{matrix[i, j].real:>10.6f}" for j in range(4))
        print(f"  {bell.value:<8}{cells}")


def cmd_decompose(args: argparse.Namespace) -> int:
    if (angles := _angles_from_args(args)) is None:
        return 2
    numeric = bell_bell_coefficients([angles])[0]
    closed = bell_bell_coefficients_closed_form([angles])[0]
    deviation = float(np.max(np.abs(closed - numeric)))
    probabilities = np.abs(numeric) ** 2
    # argparse and _angles_from_args checked the flags: finite and in bounds
    correlations = _correlation_report(np.array(angles), numeric, args.tol)
    xi, eta = (sector["zeta"] for sector in correlations["sectors"])  # kappa +1, then -1
    if args.json:
        _print_json(
            {
                "format_version": FORMAT_VERSION,
                "command": "decompose",
                "angles": list(angles),
                "xi": xi,
                "eta": eta,
                "closed_form": closed.tolist(),
                "numeric": numeric.real.tolist(),
                "max_abs_deviation": deviation,
                "joint_bell_probabilities": probabilities.tolist(),
                "perfect_correlations": correlations,
            }
        )
    else:
        print(f"angles (rad): {angles}")
        print(f"xi  = {xi!r}")
        print(f"eta = {eta!r}")
        _print_bell_matrix("closed-form coefficients (rows bc, cols ad):", closed)
        _print_bell_matrix("numeric coefficients:", numeric)
        print(f"max |closed - numeric| = {deviation:.3e}")
        _print_bell_matrix("joint Bell probabilities:", probabilities)
        for sector in correlations["sectors"]:
            claim, residual = sector["predicted_product"], sector["violation_probability"]
            if claim is None:
                verdict = "no perfect correlation at this setting"
            elif sector["product_certain"] and sector["pairing_certain"]:
                verdict = f"product a*F*d = {claim:+d} with certainty (residual {residual:.1e})"
            else:
                pairing = sector["pairing_violation_probability"]
                verdict = (
                    f"claim fails: product a*F*d = {claim:+d} with certainty"
                    f" (residual {residual:.1e}, pairing residual {pairing:.1e})"
                )
            print(f"sector kappa={sector['kappa']:+d}: zeta = {sector['zeta']!r}: {verdict}")
    return 0 if deviation < CLOSED_FORM_TOL and correlations["holds"] else 1


def cmd_verify_qm(args: argparse.Namespace) -> int:
    # --out is opened before the sweep, so an unwritable path fails at once
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext() as fp:
        report = run_qm_verification(grid=args.grid, tol=args.tol, seed=args.seed)
        doc = {"format_version": FORMAT_VERSION, "command": "verify-qm", **report}
        text = json.dumps(doc, indent=2)
        if fp is not None:
            fp.write(text + "\n")
    print(text)
    return 0 if report["passed"] else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    if (angles := _angles_from_args(args)) is None:
        return 2
    violations = 0
    with open(args.out, "w", encoding="utf-8", newline="") as fp:
        rng = np.random.default_rng(args.seed)
        violating = violating_outcomes(angles, args.tol)
        # one chunk at --events 0 too: it writes the header row
        for start in range(0, args.events, EVENT_CHUNK) or [0]:
            outcomes = sample_events(angles, min(EVENT_CHUNK, args.events - start), rng)
            write_events_csv(fp, angles, outcomes, start)
            violations += int(np.count_nonzero(violating[outcomes]))
    print(f"wrote {args.events} events to {args.out}; sector-product violations: {violations}")
    return 0 if violations == 0 else 1


def _solve_and_print(cs: ConstraintSet, doc: dict, expect: str | None) -> int:
    """Solve cs with doc's method, verify the answer and print doc with the
    result document added.  The exit code is 2 if the enumeration guard
    refuses cs, else 0 iff the answer verifies and its status is ``expect``
    ("sat" or "unsat"; None accepts either)."""
    try:
        result = _METHODS[doc["method"]](cs)
    except ValueError as exc:  # the enumeration guard
        print(f"error: {exc}; use --method gf2", file=sys.stderr)
        return 2
    verified = verify_certificate(cs, result)
    doc.update(solve_result_to_dict(cs, result, verified))
    _print_json(doc)
    return 0 if verified and expect in (None, result.status.value) else 1


def cmd_refute(args: argparse.Namespace) -> int:
    alpha = _to_radians(args.alpha, args.degrees)
    beta = _to_radians(args.beta, args.degrees)
    try:
        settings = contradiction_settings(alpha, beta, args.kappa)
    except ValueError as exc:  # the pi/4 offsets lost in rounding at large angles
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.fig2:
        cs = compile_double_bell(settings, args.kappa, label="double-bell variant")
        expected, arrangement = "sat", "double-bell"
    else:
        cs = contradiction_instance(alpha, beta, args.kappa)
        expected, arrangement = "unsat", "bell-polarization-factored"
    doc = {
        "format_version": FORMAT_VERSION,
        "command": "refute",
        "alpha": alpha,
        "beta": beta,
        "kappa": args.kappa,
        "arrangement": arrangement,
        "method": args.method,
    }
    return _solve_and_print(cs, doc, expected)


def cmd_compile(args: argparse.Namespace) -> int:
    try:
        with open(args.settings, "r", encoding="utf-8") as fp:
            settings = load_settings(fp)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read settings file: {exc}", file=sys.stderr)
        return 2
    settings = np.radians(settings) if args.degrees else settings
    compile_fig = compile_bell_polarization if args.fig == 1 else compile_double_bell
    with open(args.out, "w", encoding="utf-8") as fp:
        cs = compile_fig(settings, args.kappa, args.tol, args.label)
        if args.factorize:
            cs = apply_factorization(cs)
        dump_constraint_set(cs, fp)
    print(
        f"compiled {len(settings)} settings (fig {args.fig}, kappa {args.kappa:+d})"
        f" -> {cs.n_variables} variables, {len(cs.var_ids)} constraints: {args.out}"
    )
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        with open(args.infile, "r", encoding="utf-8") as fp:
            cs = load_constraint_set(fp)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read constraint file: {exc}", file=sys.stderr)
        return 2
    doc = {
        "format_version": FORMAT_VERSION,
        "command": "solve",
        "method": args.method,
        "context": {"kappa": cs.kappa, "label": cs.label},
        "n_variables": cs.n_variables,
        "n_constraints": len(cs.var_ids),
    }
    return _solve_and_print(cs, doc, args.expect)


def _add_angle_flags(parser: argparse.ArgumentParser) -> None:
    for name in ("phi1", "phi2", "phi3", "phi4"):
        parser.add_argument(
            f"--{name}", type=_FINITE_FLOAT, default=0.0, help=f"rotation angle {name}"
        )
    parser.add_argument("--degrees", action="store_true", help="angles are degrees")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellswap",
        description="Entanglement-swapping correlation simulator and local-model refuter.",
        epilog="exit codes: 0 ok, 1 violation/unexpected result, 2 usage error",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="double Bell coefficients of the rotated state")
    _add_angle_flags(p)
    p.add_argument("--tol", type=_PHASE_TOL, default=DEFAULT_ANGLE_TOL, help=_TOL_HELP)
    p.add_argument("--json", action="store_true", help="JSON output instead of tables")

    p = sub.add_parser("verify-qm", help="check all exact predictions over a sweep")
    p.add_argument("--grid", type=_POSITIVE_INT, default=4, help="random sweep size is grid**4")
    p.add_argument("--tol", type=_PHASE_TOL, default=DEFAULT_ANGLE_TOL, help=_TOL_HELP)
    p.add_argument("--seed", type=_NONNEGATIVE_INT, default=12345, help="sweep RNG seed")
    p.add_argument("--out", help="also write the JSON report here")

    p = sub.add_parser("simulate", help="sample Bell/polarization events to CSV")
    _add_angle_flags(p)
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
    p.add_argument(
        "--tol",
        type=_COMPILE_TOL,
        default=DEFAULT_ANGLE_TOL,
        help=f"phase tolerance (rad), > 0 and <= {MAX_COMPILE_TOL:.6g}",
    )
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
    collecting = gc.isenabled()
    gc.disable()
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except OSError as exc:  # a write to --out or stdout (closed by `| head`, a full disk)
        if isinstance(exc, BrokenPipeError):
            # what is still buffered, and the interpreter's final flush, go to
            # devnull instead of raising into the closed pipe once more at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
