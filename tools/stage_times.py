"""Per-stage timings of one refute_grid-shaped round, in process.

Run from the repository root:

    python3 tools/stage_times.py
    python3 tools/stage_times.py --bases 2 --repeat 1 --solve-bases 1 2

A round compiles a dense settings grid (``--bases`` random base angles per
side, every arm pair of every left base with every arm pair of every right
base) twice, as the refute_grid benchmark workload does: figure 1 with the
factorization in sector kappa = +1 (unsatisfiable) and figure 2 in sector
kappa = -1 (satisfiable).  Each figure's system goes through every stage of
``compile`` and ``solve --method gf2``: load the settings file, compile,
factorize (figure 1), write the constraint file, parse it, load it, solve,
verify and build the result document.  Each stage is timed alone, and its
best of ``--repeat`` runs is reported in milliseconds.

It also times the two stages of ``simulate`` on EVENTS events at a
special-phase setting: ``sample_events`` draws them in one call (the
setting's CDF is cached after the first, as it is across simulate's chunks)
and ``write_events_csv`` writes them in one call, which formats them a
chunk at a time, to a string buffer, each the best of ``--repeat`` runs.

``--solve-bases`` also times ``gf2_solve`` on the unfactorized figure-1
system of a grid with that many bases per side (satisfiable; 9, 14 and 20
bases give 1044, 2464 and 4960 unknowns), best of ``--repeat`` runs.  The
base angles are drawn with the refute_grid benchmark's seed, SEED.

The output is one JSON object on standard output.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import platform
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bellswap import correlations, lhv, quantum, serialize, solver  # noqa: E402

OFFSETS = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)

#: Seed of the base angles and of the event draws, the refute_grid benchmark's.
SEED = 301

#: Events of the simulate stages, and the setting they are drawn at.
EVENTS = 100_000
EVENT_ANGLES = (0.25, 0.25 + math.pi / 4, 1.0, 1.0 + math.pi / 4)


def grid_settings(rng: np.random.Generator, bases: int) -> list[list[float]]:
    """Every arm pair of every left base with every arm pair of every right
    base; an arm pair is the base twice, or the base and the base plus an
    offset, either way round."""

    def arm_pairs(base: float) -> list[tuple[float, float]]:
        out = [(base, base)]
        for offset in OFFSETS[1:]:
            out += [(base, base + offset), (base + offset, base)]
        return out

    alphas = rng.uniform(0.0, 2 * math.pi, size=bases).tolist()
    betas = rng.uniform(0.0, 2 * math.pi, size=bases).tolist()
    return [
        [*left, *right]
        for alpha in alphas
        for beta in betas
        for left in arm_pairs(alpha)
        for right in arm_pairs(beta)
    ]


def best_ms(repeat: int, fn):
    """Best wall time of ``repeat`` calls in milliseconds, and the last result."""
    times = []
    for _ in range(repeat):
        start = perf_counter()
        result = fn()
        times.append(perf_counter() - start)
    return 1e3 * min(times), result


def round_stages(settings_text: str, repeat: int) -> dict[str, float]:
    """Best time of every stage of one compile + solve of both figures."""
    stages: dict[str, float] = {}

    def stage(name, fn):
        stages[name], result = best_ms(repeat, fn)
        return result

    for fig, kappa in ((1, +1), (2, -1)):
        context = lhv.HiddenContext(kappa=kappa, label="grid")
        compile_fig = lhv.compile_bell_polarization if fig == 1 else lhv.compile_double_bell
        settings = stage(
            f"load_settings_fig{fig}",
            lambda: serialize.load_settings(io.StringIO(settings_text), False),
        )
        cs = stage(f"compile_fig{fig}", lambda: compile_fig(settings, context))
        if fig == 1:
            cs = stage("apply_factorization", lambda: lhv.apply_factorization(cs))
        text = stage(f"dump_constraint_set_fig{fig}", lambda: dump_text(cs))
        doc = stage(f"json_loads_fig{fig}", lambda: json.loads(text))
        loaded = stage(
            f"constraint_set_from_dict_fig{fig}", lambda: serialize.constraint_set_from_dict(doc)
        )
        result = stage(f"gf2_solve_fig{fig}", lambda: solver.gf2_solve(loaded))
        verified = stage(
            f"verify_certificate_fig{fig}", lambda: solver.verify_certificate(loaded, result)
        )
        stage(
            f"solve_result_to_dict_fig{fig}",
            lambda: serialize.solve_result_to_dict(loaded, result, verified),
        )
        expected = solver.SolveStatus.UNSAT if fig == 1 else solver.SolveStatus.SAT
        if result.status is not expected or not verified:
            raise SystemExit(f"figure {fig}: unexpected {result.status.value}, verified={verified}")
    return stages


def dump_text(cs: lhv.ConstraintSet) -> str:
    buffer = io.StringIO()
    serialize.dump_constraint_set(cs, buffer)
    return buffer.getvalue()


def event_stages(repeat: int) -> dict[str, float]:
    """Best time of sampling and of writing EVENTS events."""
    angles = quantum.AngleSettings(*EVENT_ANGLES)
    sample_ms, outcomes = best_ms(repeat, lambda: correlations.sample_events(angles, EVENTS, SEED))
    write_ms, _ = best_ms(
        repeat, lambda: serialize.write_events_csv(io.StringIO(), angles, outcomes)
    )
    return {"sample_events": sample_ms, "write_events_csv": write_ms}


def unfactorized_solves(sizes: list[int], repeat: int) -> list[dict]:
    """gf2_solve on the unfactorized figure-1 system of each grid size."""
    out = []
    for bases in sizes:
        text = json.dumps(grid_settings(np.random.default_rng(SEED), bases))
        settings = serialize.load_settings(io.StringIO(text), False)
        cs = lhv.compile_bell_polarization(settings, lhv.HiddenContext(kappa=+1))
        ms, result = best_ms(repeat, lambda: solver.gf2_solve(cs))
        out.append(
            {
                "bases": bases,
                "unknowns": cs.n_variables,
                "constraints": len(cs.constraints),
                "status": result.status.value,
                "ms": ms,
            }
        )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bases", type=int, default=9, help="base angles per side of the round")
    parser.add_argument("--repeat", type=int, default=9, help="runs per timing; the best counts")
    parser.add_argument(
        "--solve-bases",
        type=int,
        nargs="*",
        default=[9, 14, 20],
        help="grid sizes of the unfactorized figure-1 gf2_solve timings",
    )
    args = parser.parse_args(argv)
    if min([args.bases, args.repeat, *args.solve_bases]) < 1:
        parser.error("sizes and --repeat must be >= 1")

    settings = grid_settings(np.random.default_rng(SEED), args.bases)
    stages = round_stages(json.dumps({"settings": settings}), args.repeat)
    report = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": SEED,
        "bases": args.bases,
        "settings": len(settings),
        "repeat": args.repeat,
        "stages_ms": stages,
        "round_ms": sum(stages.values()),
        "events": EVENTS,
        "event_stages_ms": event_stages(args.repeat),
        "gf2_unfactorized_fig1": unfactorized_solves(args.solve_bases, args.repeat),
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
