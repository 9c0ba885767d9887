"""Benchmark of the bellswap command line: four seeded workloads.

Run from the repository root:

    python3 benchmarks/run.py --workload qm_sweep --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25 --trace 1
    python3 benchmarks/run.py --smoke

Workloads (see ``workloads.py``): ``qm_sweep`` (verify-qm at grid 5),
``events`` (simulate 5e4 events at a special-phase setting), ``refute_grid``
(compile + gf2 solve of a dense 3969-setting grid, both figures) and
``cli_mix`` (a thousand short commands).  Every command runs in-process
through ``bellswap.cli.main``, in one process and one thread pinned to one
CPU, with BLAS threads pinned to 1.  Times are rescaled to a reference
machine speed (``speed.py``).

``--trace 0`` measures for ``--seconds`` with tracing off and reports the
end-to-end metrics:

- ``setup_s``: median wall time of fresh processes that import the package,
  build the inputs from the seed and make one warm-up call;
- ``items_per_s``: work items per second of command time, the median over
  rounds; an item is a setting checked (qm_sweep), an event sampled,
  checked and written (events), a grid setting certified both ways
  (refute_grid) or a command (cli_mix, where a round is the whole mix);
- ``request_p50_ms``: median time a user waits for one request: one
  verify-qm or simulate command, one certification of the settings file
  (four commands), or one short command.  The 99th percentile is printed on
  the information line with the request count.  It is not a metric: only
  cli_mix has the ten requests beyond it that a steady 99th percentile
  needs, and every metric is reported for every workload;
- ``peak_rss_mb``: high-water resident memory of the measuring process.

``--trace 1`` spends half of ``--seconds`` untraced and half with every
listed public function wrapped (``tracing.py``), and reports the per-layer
metrics: self seconds and calls per round, exact problem sizes, and
``trace.overhead_ratio`` (traced / untraced median round time).  Spans are
written to ``.benchwork/<workload>/spans.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Failed output
checks, failed set-up probes and problem sizes that differ between rounds of
one seed count as failures; ``failed / attempted`` is printed as
``failed_ratio``.  ``--smoke`` runs every workload once in each mode at tiny
sizes and checks the printed metrics against ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".benchwork"
WORKLOAD_NAMES = ("qm_sweep", "events", "refute_grid", "cli_mix")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "request_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYER_TOTALS = ("quantum", "correlations", "verification", "lhv", "solver", "serialize", "cli")
CALLS_AND_SELF = (
    "quantum.make_vw_state",
    "quantum.rotate_photon",
    "quantum.apply_all_rotations",
    "quantum.bell_bell_amplitudes_numeric",
    "quantum.bell_bell_amplitudes_closed_form",
    "quantum.compute_phases",
    "correlations.bell_polarization_distribution",
    "correlations.joint_bell_probabilities",
    "correlations.perfect_correlation_report",
    "solver.gf2_solve",
    "solver.enumerate_solve",
)
SELF_ONLY = (
    "correlations.sample_events",
    "lhv.apply_factorization",
    "solver.verify_certificate",
    "serialize.write_events_csv",
    "serialize.dump_constraint_set",
    "serialize.load_constraint_set",
    "serialize.solve_result_to_dict",
    "cli.build_parser",
)
COMPILE_FNS = (
    "lhv.compile_bell_polarization",
    "lhv.compile_double_bell",
    "lhv.compile_factored",
    "lhv.contradiction_instance",
)
OBSERVED_COUNTS = ("lhv.variables", "lhv.constraints", "solver.certificate_size", "solver.components")


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.self_s": "s" for layer in LAYER_TOTALS}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    units["lhv.compile.self_s"] = "s"
    units["quantum.states_per_setting"] = "ratio"
    units["correlations.classify_zeta.calls"] = "count"
    units["correlations.us_per_event"] = "us"
    for name in OBSERVED_COUNTS:
        units[name] = "count"
    units["serialize.csv_bytes"] = units["serialize.json_bytes"] = "bytes"
    units["trace.overhead_ratio"] = "ratio"
    return units


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def measure(workload, reference, seconds: float, min_rounds: int, tracer=None) -> tuple[list, list]:
    """Run whole rounds until ``seconds`` have passed; returns the rounds and,
    when traced, the per-round counts observed at the solver and sampler."""
    rounds, counts = [], []
    deadline = perf_counter() + seconds
    while len(rounds) < min_rounds or perf_counter() < deadline:
        if tracer is not None:
            tracer.run_id = len(rounds)
        reference.start_round()
        round_ = workload.round()
        round_.scale = reference.end_round()
        rounds.append(round_)
        if tracer is not None:
            counts.append(observed_counts(tracer))
    return rounds, counts


def observed_counts(tracer) -> Counter:
    """Problem sizes seen at the solver and sampler boundaries in one round."""
    from workloads import count_components

    counts: Counter = Counter()
    for name, args, result in tracer.observed:
        if name == "correlations.sample_events":
            counts["events"] += len(result)
            continue
        cs = args[0]
        counts["lhv.variables"] += cs.n_variables
        counts["lhv.constraints"] += len(cs.constraints)
        counts["solver.components"] += count_components(
            cs.n_variables, [c.var_ids for c in cs.constraints]
        )
        if result.certificate is not None:
            counts["solver.certificate_size"] += len(result.certificate)
    tracer.observed.clear()
    return counts


def layer_metrics(tracer, rounds, counts, untraced_rounds) -> tuple[dict, int]:
    """Per-layer values (medians over traced rounds) and the number of exact
    counts that differed between rounds."""
    table = tracer.self_times()
    ids = range(len(rounds))
    mismatches = 0

    def self_s(names) -> float:
        return statistics.median(
            rounds[r].scale * sum(table[r][n][1] for n in names if n in table[r]) for r in ids
        )

    def exact(values) -> float:
        nonlocal mismatches
        values = list(values)
        if len(set(values)) > 1:
            mismatches += 1
        return values[0]

    def calls(name) -> float:
        return exact(table[r][name][0] if name in table[r] else 0 for r in ids)

    all_names = {n for r in ids for n in table[r]}
    values = {}
    for layer in LAYER_TOTALS:
        values[f"{layer}.self_s"] = self_s([n for n in all_names if n.startswith(layer + ".")])
    for name in CALLS_AND_SELF:
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.self_s"] = self_s([name])
    for name in SELF_ONLY:
        values[f"{name}.self_s"] = self_s([name])
    values["lhv.compile.self_s"] = self_s(COMPILE_FNS)
    qm_settings = exact(r.descriptors["qm_settings"] for r in rounds)
    values["quantum.states_per_setting"] = (
        calls("quantum.apply_all_rotations") / qm_settings if qm_settings else 0.0
    )
    values["correlations.classify_zeta.calls"] = calls("correlations.classify_zeta")
    events = exact(c["events"] for c in counts)
    values["correlations.us_per_event"] = (
        1e6 * values["correlations.sample_events.self_s"] / events if events else 0.0
    )
    for name in OBSERVED_COUNTS:
        values[name] = exact(c[name] for c in counts)
    values["serialize.csv_bytes"] = exact(r.descriptors["csv_bytes"] for r in rounds)
    values["serialize.json_bytes"] = exact(r.descriptors["json_bytes"] for r in rounds)
    traced = statistics.median(r.scale * sum(r.latencies) for r in rounds)
    untraced = statistics.median(r.scale * sum(r.latencies) for r in untraced_rounds)
    values["trace.overhead_ratio"] = traced / untraced
    return values, mismatches


def probe_setup(args, reference) -> tuple[list[float], int]:
    """Scaled wall time of fresh set-up processes; returns (times, failures)."""
    times, failures = [], 0
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
    command += ["--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])

    def probe():
        start = perf_counter()
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
        )
        return proc, perf_counter() - start

    for _ in range(1 if args.smoke else SETUP_PROBES):
        try:
            (proc, elapsed), scale = reference.around(probe)
        except subprocess.TimeoutExpired:
            failures += 1
            continue
        times.append(elapsed * scale)
        if proc.returncode != 0:
            failures += 1
            print(f"set-up probe failed: {proc.stderr.strip()[-300:]}", file=sys.stderr)
    return times, failures


def run_workload(args) -> int:
    import numpy as np

    import bellswap
    from speed import SpeedReference
    from tracing import Tracer
    from workloads import WORKLOADS

    workdir = WORK_DIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    if args.setup_probe:
        warm = WORKLOADS[args.workload](args.seed, args.smoke, workdir).warm_up()
        return 1 if warm.failed else 0

    reference = SpeedReference()
    setup_times, failed = ([], 0) if args.trace else probe_setup(args, reference)
    attempted = len(setup_times) + failed
    workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    warm = workload.warm_up()
    workload.before_command = reference.before_command
    min_rounds = 1 if args.smoke else 2
    if args.trace:
        untraced, _ = measure(workload, reference, args.seconds / 2, min_rounds)
        tracer = Tracer()
        tracer.install()
        try:
            rounds, counts = measure(workload, reference, args.seconds / 2, min_rounds, tracer)
        finally:
            tracer.uninstall()
    else:
        rounds, _ = measure(workload, reference, args.seconds, min_rounds)
    all_rounds = [warm, *rounds] + (untraced if args.trace else [])
    attempted += sum(r.attempted for r in all_rounds)
    failed += sum(r.failed for r in all_rounds)
    descriptors = rounds[0].descriptors
    if any(r.descriptors != descriptors for r in rounds[1:] + (untraced if args.trace else [])):
        failed += 1
        workload.errors.append("problem sizes differ between rounds of one seed")

    latencies = [r.scale * t for r in rounds for t in r.latencies]
    raw = [t for r in rounds for t in r.latencies]
    if args.trace:
        metrics, mismatches = layer_metrics(tracer, rounds, counts, untraced)
        failed += mismatches
        units = per_layer_units()
    else:
        metrics = {
            "setup_s": statistics.median(setup_times) if setup_times else 0.0,
            "items_per_s": statistics.median(r.items / (r.scale * sum(r.latencies)) for r in rounds),
            "request_p50_ms": 1e3 * percentile(latencies, 50),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bellswap": bellswap.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "rounds": len(rounds),
        "requests": len(latencies),
        "request_p99_ms": 1e3 * percentile(latencies, 99),
        "raw_request_p50_ms": 1e3 * percentile(raw, 50),
        "median_speed_scale": statistics.median(r.scale for r in rounds),
        "descriptors": dict(sorted(descriptors.items())),
    }
    if args.trace:
        tracer.write_spans(workdir / "spans.jsonl", meta)
    for error in workload.errors:
        print(error, file=sys.stderr)
    print(json.dumps(meta))
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted})")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Run each workload in its own process; the last line maps workload to
    result.  With --smoke, also check metric names and units."""
    results, status = {}, 0
    modes = (0, 1) if args.smoke else (args.trace,)
    for trace in modes:
        for name in WORKLOAD_NAMES:
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
            command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
            command += ["--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                print(f"[{name} trace={trace}] {line}")
            status = max(status, proc.returncode)
            try:
                results[f"{name}/trace{trace}"] = json.loads(lines[-1])
            except (IndexError, ValueError):
                results[f"{name}/trace{trace}"] = None
                status = max(status, 1)
    if args.smoke:
        problems = smoke_problems(results)
        for problem in problems:
            print(f"smoke: {problem}", file=sys.stderr)
        status = max(status, 1 if problems else 0)
    print(json.dumps(results))
    return status


def smoke_problems(results: dict) -> list[str]:
    """Every metric of BENCHMARK.json present with its unit, nothing failed."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fp:
        spec = json.load(fp)
    problems = []
    for key, result in results.items():
        if result is None:
            problems.append(f"{key}: no result line")
            continue
        expected = spec["per_layer"] if key.endswith("trace1") else spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in expected}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != units:
            problems.append(f"{key}: metrics {sorted(set(got) ^ set(units))} differ from spec")
        if result["failed"] != 0 or not result["correct"]:
            problems.append(f"{key}: failed_ratio {result['failed']}/{result['attempted']}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time (default 25, smoke 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one round")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else 25.0

    if not (ROOT / "src" / "bellswap" / "__init__.py").is_file():
        print(f"error: no bellswap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # One CPU for the measured process, its set-up probes and the speed
    # reference, so that the reference samples the CPU the commands run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
