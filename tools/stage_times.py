"""Per-stage timings of one refute_grid-shaped round, in process.

Run from the repository root:

    python3 tools/stage_times.py
    python3 tools/stage_times.py --bases 2 --repeat 1 --solve-bases 1 2
    python3 tools/stage_times.py --repeat 5 --runs 5
    python3 tools/stage_times.py --repeat 5 --runs 3 > report.json

A round compiles the refute_grid benchmark workload's settings grid, made by
its ``benchmarks/workloads.py`` code from its seed (``--bases`` random base
angles per side, every arm pair of every left base with every arm pair of
every right base), twice, as that workload does: figure 1 with the
factorization in sector kappa = +1 (unsatisfiable) and figure 2 in sector
kappa = -1 (satisfiable).  Each figure's system goes through every stage of
``compile`` and ``solve --method gf2``: load the settings file, compile,
factorize (figure 1), write the constraint file, parse it as
``load_constraint_set`` parses it (``parse_fig1``, ``serialize._parse``),
fill its columns, solve, verify and build the result document.  Each stage
is timed alone, and its best of ``--repeat`` runs is reported in
milliseconds.  Every library stage of this tool runs with the cyclic
collector paused, as ``cli.main`` pauses it around a command, and the report
says so with ``"gc_paused": true``.

``cli_ms`` times the same round as the workload runs it: its four commands
(``compile --factorize`` and ``solve --method gf2`` of figure 1 in kappa = +1,
``compile`` and ``solve`` of figure 2 in kappa = -1) through ``cli.main``, on
files in a temporary directory, each the best of ``--repeat`` runs; here
``main`` pauses the collector itself.  ``cli_collections`` counts the
collector passes per generation (``gc.callbacks``) over those ``--repeat``
four-command windows, divided by ``--repeat``; each window includes the pass
that ``main`` puts off until it turns the collector back on.

It times ``simulate`` at the events benchmark workload's setting, made by
its code from SEED, each the best of ``--repeat`` runs: its two stages on
EVENTS events, ``sample_events`` in one call (the setting's sampling lookup
is cached after the first, as it is across simulate's chunks) and
``write_events_csv`` in one call to a string buffer, and, as
``simulate_cli``, the workload's own command through ``cli.main`` into a
temporary directory, which also pays for opening the file and for the disk
writes.  Like the workload, ``simulate_cli`` writes over the previous run's
file; ``simulate_cli_fresh`` is the same command writing to a new path in
that directory on each run, the first write of a file.

It times the layers of a ``verify-qm --grid 5`` sweep, the qm_sweep
benchmark workload's, on that sweep's batch of 725 settings (625 random,
then the 100 special-family ones, drawn as ``run_qm_verification`` draws
them, here from SEED): ``_rotate_all`` (the rotated two-singlet
amplitudes), ``_project`` (their projection onto the Bell vectors),
``_outcome_probabilities`` (the Bell/polarization probabilities of the
batch's C), ``bell_bell_coefficients_closed_form``, ``_sweep_values`` (the
per-setting checks), ``_sector_arrays`` (both sectors' perfect-correlation
values of the 100 family settings), ``_correlation_report`` (the one-setting
report of the first family setting from its row of C, and its JSON document
as ``decompose --json`` indents it) and the whole ``run_qm_verification``
call, each the best of ``--repeat`` runs.  ``one_setting_ms`` times what
every ``decompose`` command pays in the library on that first family
setting alone: ``bell_bell_coefficients`` of its one row and
``_correlation_report`` from that row's C, without the JSON document.

``--solve-bases`` also times ``gf2_solve`` on the unfactorized figure-1
system of a grid with that many bases per side (satisfiable; 9, 14 and 20
bases give 1044, 2464 and 4960 unknowns), and ``verify_certificate`` on
its model (``verify_ms``), each best of ``--repeat`` runs.  Its settings
are the refute_grid grid of that size, drawn the same way.

``enumerate_solve_ms`` times ``enumerate_solve`` at its guard, on the two
systems of the 1-base grid's round that the guard admits, best of
``--repeat`` runs: figure 1 factorized in kappa = +1 (``fig1_factorized``,
20 unknowns and 37 constraints, unsatisfiable, so it also runs the
certificate search) and figure 2 in kappa = -1 (``fig2``, 24 unknowns and
25 constraints, satisfiable).

It also reports ``src_lines``: the line count of each module of the
package, as ``wc -l`` counts them, and their total.

``--runs K`` makes the whole measurement K times.  Each timing is then the
best of its K best-of-``--repeat`` values (``round_ms`` the sum of the best
stages, ``cli_collections`` the mean of the K counts), and, for K > 1,
``quartiles_ms`` gives the first quartile, median and third quartile of the
K values of each timing, in the report's layout (the unfactorized solves'
``gf2_unfactorized_fig1`` and ``verify_unfactorized_fig1`` as lists in
``--solve-bases`` order), beside ``runs``.  ``--runs 1``, the
default, reports only the best-of keys.

The output is one JSON object on standard output.  It names the code it
timed: ``commit`` is the ``git rev-parse HEAD`` of the checkout the tool
runs from, and ``dirty`` says whether tracked files differ from that commit
(then the numbers are not that commit's); both are null outside a checkout.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import platform
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "benchmarks")]

from bellswap import cli, correlations, lhv, quantum, serialize, solver, verification  # noqa: E402
from workloads import Events, grid_settings, rng_for  # noqa: E402

#: The benchmark seed: of the grids' base angles and of the events setting
#: and command (made as the refute_grid and events workloads make them), of
#: the event draws and of the verify-qm batch.
SEED = 301

#: Events of the simulate stages.
EVENTS = 100_000

#: Grid of the verify-qm stages: grid**4 random settings plus the families.
QM_GRID = 5


def grid(bases: int) -> list[list[float]]:
    """The refute_grid workload's settings grid with ``bases`` bases per side."""
    return grid_settings(rng_for(SEED, "refute_grid"), bases)


def best_ms(repeat: int, fn):
    """Best wall time of ``repeat`` calls in milliseconds, and the last
    result, with the cyclic collector paused as ``cli.main`` pauses it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeat):
            start = perf_counter()
            result = fn()
            times.append(perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return 1e3 * min(times), result


def stage_timer(stages: dict[str, float], repeat: int):
    """stage(name, fn): record fn's best time under ``name`` in stages and
    return its last result."""

    def stage(name, fn):
        stages[name], result = best_ms(repeat, fn)
        return result

    return stage


def round_stages(settings_text: str, repeat: int) -> dict[str, float]:
    """Best time of every stage of one compile + solve of both figures."""
    stages: dict[str, float] = {}
    stage = stage_timer(stages, repeat)
    for fig, kappa in ((1, +1), (2, -1)):
        compile_fig = lhv.compile_bell_polarization if fig == 1 else lhv.compile_double_bell
        settings = stage(
            f"load_settings_fig{fig}",
            lambda: serialize.load_settings(io.StringIO(settings_text)),
        )
        cs = stage(f"compile_fig{fig}", lambda: compile_fig(settings, kappa, label="grid"))
        if fig == 1:
            cs = stage("apply_factorization", lambda: lhv.apply_factorization(cs))
        text = stage(f"dump_constraint_set_fig{fig}", lambda: dump_text(cs))
        doc = stage(f"parse_fig{fig}", lambda: serialize._parse(io.StringIO(text)))
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


def round_commands(settings: Path, folder: Path) -> dict[str, list[str]]:
    """The refute_grid round's four commands on a settings file, by name."""
    commands = {}
    for fig, kappa, expect in ((1, +1, "unsat"), (2, -1, "sat")):
        system = folder / f"system_fig{fig}.json"
        factorize = ["--factorize"] if fig == 1 else []
        commands[f"compile_fig{fig}"] = [
            "compile",
            f"--settings={settings}",
            f"--kappa={kappa}",
            f"--fig={fig}",
            f"--out={system}",
            *factorize,
        ]
        commands[f"solve_fig{fig}"] = [
            "solve",
            f"--in={system}",
            "--method=gf2",
            f"--expect={expect}",
        ]
    return commands


def cli_round(settings_text: str, repeat: int) -> tuple[dict[str, float], dict[str, float]]:
    """Best time of each of the round's commands through ``cli.main`` over
    ``repeat`` windows of the four in order, and the collector passes per
    generation per window."""
    passes = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            passes[info["generation"]] += 1

    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        settings = folder / "settings.json"
        settings.write_text(settings_text, encoding="utf-8")
        commands = round_commands(settings, folder)
        times: dict[str, list[float]] = {name: [] for name in commands}
        gc.callbacks.append(count)
        try:
            for _ in range(repeat):
                for name, argv in commands.items():
                    # the new buffer is the first tracked allocation after the
                    # previous command: a pass its pause put off runs here
                    with redirect_stdout(io.StringIO()):
                        start = perf_counter()
                        code = cli.main(argv)
                        times[name].append(perf_counter() - start)
                    if code != 0:
                        raise SystemExit(f"{name}: exit {code}")
            io.StringIO()  # the same for the last command
        finally:
            gc.callbacks.remove(count)
    best = {name: 1e3 * min(runs) for name, runs in times.items()}
    return best, {f"gen{gen}": n / repeat for gen, n in enumerate(passes)}


def event_stages(repeat: int) -> dict[str, float]:
    """Best time of sampling and of writing EVENTS events at the events
    workload's setting, and of that workload's simulate command, writing
    over its last output and writing a new file."""
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        events = Events(SEED, False, Path(tmp))
        sample_ms, outcomes = best_ms(
            repeat, lambda: correlations.sample_events(events.angles, EVENTS, SEED)
        )
        write_ms, _ = best_ms(
            repeat, lambda: serialize.write_events_csv(io.StringIO(), events.angles, outcomes)
        )
        simulate_ms, code = best_ms(repeat, lambda: cli.main(events.argv))
        fresh = iter([[*events.argv[:-1], f"--out={tmp}/fresh{i}.csv"] for i in range(repeat)])
        fresh_ms, fresh_code = best_ms(repeat, lambda: cli.main(next(fresh)))
    if code != 0 or fresh_code != 0:
        raise SystemExit(f"simulate: exit {code or fresh_code}")
    return {
        "sample_events": sample_ms,
        "write_events_csv": write_ms,
        "simulate_cli": simulate_ms,
        "simulate_cli_fresh": fresh_ms,
    }


def qm_batch() -> np.ndarray:
    """The settings of run_qm_verification(QM_GRID, seed=SEED), drawn as it
    draws them: QM_GRID**4 random ones, then the special families."""
    rng = np.random.default_rng(SEED)
    random = rng.uniform(0.0, 2 * math.pi, size=(QM_GRID**4, 4))
    families = verification.special_family_settings(rng, verification._PER_FAMILY)
    return np.concatenate([random, [angles for _, angles in families]])


def qm_stages(batch: np.ndarray, repeat: int) -> dict[str, float]:
    """Best time of each layer of the verify-qm sweep on its batch."""
    stages: dict[str, float] = {}
    stage = stage_timer(stages, repeat)
    state = quantum.make_vw_state()
    rotated = stage("_rotate_all", lambda: quantum._rotate_all(state, batch))
    numeric = stage("_project", lambda: quantum._project(rotated))
    stage("_outcome_probabilities", lambda: correlations._outcome_probabilities(numeric))
    closed = stage(
        "bell_bell_coefficients_closed_form",
        lambda: quantum.bell_bell_coefficients_closed_form(batch),
    )
    stage("_sweep_values", lambda: verification._sweep_values(numeric, closed))
    family = slice(QM_GRID**4, None)
    stage(
        "_sector_arrays",
        lambda: correlations._sector_arrays(
            batch[family], numeric[family], correlations.DEFAULT_ANGLE_TOL
        ),
    )
    stage(
        "_correlation_report",
        lambda: json.dumps(
            correlations._correlation_report(
                batch[family.start], numeric[family.start], correlations.DEFAULT_ANGLE_TOL
            ),
            indent=2,
        ),
    )
    stage("run_qm_verification", lambda: verification.run_qm_verification(QM_GRID, seed=SEED))
    return stages


def one_setting_stages(batch: np.ndarray, repeat: int) -> dict[str, float]:
    """Best time of decompose's library work on the first family setting."""
    stages: dict[str, float] = {}
    stage = stage_timer(stages, repeat)
    row = batch[QM_GRID**4]
    coeffs = stage("bell_bell_coefficients", lambda: quantum.bell_bell_coefficients(row[None]))
    stage(
        "_correlation_report",
        lambda: correlations._correlation_report(row, coeffs[0], correlations.DEFAULT_ANGLE_TOL),
    )
    return stages


def grid_file_settings(bases: int) -> np.ndarray:
    """The grid of that size as ``load_settings`` reads it from a file."""
    return serialize.load_settings(io.StringIO(json.dumps(grid(bases))))


def unfactorized_solves(sizes: list[int], repeat: int) -> list[dict]:
    """gf2_solve on the unfactorized figure-1 system of each grid size, and
    verify_certificate on its model."""
    out = []
    for bases in sizes:
        cs = lhv.compile_bell_polarization(grid_file_settings(bases), +1)
        ms, result = best_ms(repeat, lambda: solver.gf2_solve(cs))
        verify_ms, verified = best_ms(repeat, lambda: solver.verify_certificate(cs, result))
        if not verified:
            raise SystemExit(f"unfactorized {bases}-base system: model not verified")
        out.append(
            {
                "bases": bases,
                "unknowns": cs.n_variables,
                "constraints": len(cs.var_ids),
                "status": result.status.value,
                "ms": ms,
                "verify_ms": verify_ms,
            }
        )
    return out


def enumerate_solves(repeat: int) -> dict[str, float]:
    """enumerate_solve on the two systems of the 1-base round that its guard
    admits: figure 1 factorized in kappa = +1, figure 2 in kappa = -1."""
    settings = grid_file_settings(1)
    systems = {
        "fig1_factorized": (
            lhv.apply_factorization(lhv.compile_bell_polarization(settings, +1)),
            solver.SolveStatus.UNSAT,
        ),
        "fig2": (lhv.compile_double_bell(settings, -1), solver.SolveStatus.SAT),
    }
    out = {}
    for name, (cs, expected) in systems.items():
        out[name], result = best_ms(repeat, lambda: solver.enumerate_solve(cs))
        if result.status is not expected:
            raise SystemExit(f"enumerate_solve {name}: unexpected {result.status.value}")
    return out


#: The report's sections of timings, in milliseconds, besides the
#: unfactorized solves.
TIMED = (
    "stages_ms",
    "round_ms",
    "cli_ms",
    "event_stages_ms",
    "qm_stages_ms",
    "one_setting_ms",
    "enumerate_solve_ms",
)


def timings(settings_text: str, batch: np.ndarray, args: argparse.Namespace) -> dict:
    """One run of every measurement of the report."""
    stages = round_stages(settings_text, args.repeat)
    cli_ms, cli_collections = cli_round(settings_text, args.repeat)
    return {
        "stages_ms": stages,
        "round_ms": sum(stages.values()),
        "cli_ms": cli_ms,
        "cli_collections": cli_collections,
        "event_stages_ms": event_stages(args.repeat),
        "qm_stages_ms": qm_stages(batch, args.repeat),
        "one_setting_ms": one_setting_stages(batch, args.repeat),
        "enumerate_solve_ms": enumerate_solves(args.repeat),
        "gf2_unfactorized_fig1": unfactorized_solves(args.solve_bases, args.repeat),
    }


def across(runs: list, reduce):
    """``reduce`` of each leaf's values over runs of one layout: dicts by
    key, lists by index."""
    first = runs[0]
    if isinstance(first, dict):
        return {key: across([run[key] for run in runs], reduce) for key in first}
    if isinstance(first, list):
        return [across(list(items), reduce) for items in zip(*runs)]
    return reduce(runs)


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile of the values."""
    return statistics.quantiles(values, n=4, method="inclusive")


def summary(runs: list[dict]) -> dict:
    """The runs of ``timings`` as one report: see the module docstring."""
    report = across(runs, min)
    report["round_ms"] = sum(report["stages_ms"].values())
    report["cli_collections"] = across([run["cli_collections"] for run in runs], statistics.mean)
    if len(runs) > 1:
        timed = []
        for run in runs:
            solves = run["gf2_unfactorized_fig1"]
            unfactorized = {
                "gf2_unfactorized_fig1": [solve["ms"] for solve in solves],
                "verify_unfactorized_fig1": [solve["verify_ms"] for solve in solves],
            }
            timed.append({key: run[key] for key in TIMED} | unfactorized)
        report["runs"] = len(runs)
        report["quartiles_ms"] = across(timed, quartiles)
    return report


def src_lines() -> dict[str, int]:
    """Newlines in each src/bellswap/*.py, by file name, and their total."""
    paths = sorted(SRC.glob("bellswap/*.py"))
    counts = {path.name: path.read_bytes().count(b"\n") for path in paths}
    return {**counts, "total": sum(counts.values())}


def checkout() -> dict:
    """The tool's checkout: its HEAD ``commit`` and whether tracked files are
    ``dirty`` against it; both None outside a checkout, or where git is
    missing."""

    def git(*argv: str) -> str:
        run = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True, check=True)
        return run.stdout.strip()

    try:
        head = git("rev-parse", "HEAD")
        changed = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}
    return {"commit": head, "dirty": bool(changed)}


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
    parser.add_argument(
        "--runs", type=int, default=1, help="whole measurements; reports their quartiles too"
    )
    args = parser.parse_args(argv)
    if min([args.bases, args.repeat, args.runs, *args.solve_bases]) < 1:
        parser.error("sizes, --repeat and --runs must be >= 1")

    settings = grid(args.bases)
    settings_text = json.dumps({"settings": settings})
    batch = qm_batch()
    report = {
        **checkout(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": SEED,
        "bases": args.bases,
        "settings": len(settings),
        "repeat": args.repeat,
        "gc_paused": True,
        "events": EVENTS,
        "qm_grid": QM_GRID,
        "qm_settings": len(batch),
        **summary([timings(settings_text, batch, args) for _ in range(args.runs)]),
        "src_lines": src_lines(),
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
