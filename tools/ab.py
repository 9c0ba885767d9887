"""A/B timing of two source trees on one benchmark workload, in pairs.

Run from the repository root:

    python3 tools/ab.py BASE_TREE NEW_TREE --workload events --pairs 10 --seed 311
    python3 tools/ab.py . . --workload qm_sweep --pairs 10 --seed 1 --seconds 5
    python3 tools/ab.py . . --workload events --pairs 1 --smoke

A process's timing moves with its memory layout, and the size of its
environment and of its working directory's path alone move qm_sweep by
10-15% (Mytkowicz, Diwan, Hauswirth and Sweeney, ASPLOS 2009).  So the tool
copies both trees, without their ``.git`` and build leftovers, into two
sibling directories of a new temporary directory, ``a`` and ``b``, whose
paths have the same length.  Each pair draws, from a generator seeded with
``--seed``, one environment padding of 0-4096 bytes (the variable
``AB_PADDING``, which nothing reads) and an order, and runs both sides under
that padding, in that order, through ``benchmarks/run.py --trace 0`` at
``--seed``.  ``--seconds`` and ``--smoke`` pass through to it.

Standard output is one JSON object: the inputs, each tree's git ``commit``
and whether its tracked files are ``dirty`` (both null outside a checkout),
each pair's padding, order and the two runs' end-to-end metrics and failure
counts, and for each metric the per-pair ratios NEW / BASE, the count of
pairs in which each side is ahead (``better`` of ``BENCHMARK.json`` says
which way is ahead; a tie counts for neither), the first quartile, median
and third quartile of the ratios, and those of each side's own values.  A
run without a result line stops the tool with exit status 1.  It starts no
process but its own children, sets nothing on the machine, and removes its
copies when done.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

#: What a tree's copy leaves out: its history and what building, testing and
#: benchmarking it leave behind.
LEFT_OUT = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchwork", "*.egg-info")

MAX_PADDING = 4096


def quartiles(values: list[float]) -> list[float]:
    """The first quartile, median and third quartile of values."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def checkout(tree: Path) -> dict:
    """The HEAD ``commit`` of tree's checkout and whether tracked files are
    ``dirty`` against it; both None outside a checkout, or where git is
    missing."""

    def git(*argv: str) -> str:
        run = subprocess.run(["git", *argv], cwd=tree, capture_output=True, text=True, check=True)
        return run.stdout.strip()

    try:
        head = git("rev-parse", "HEAD")
        changed = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}
    return {"commit": head, "dirty": bool(changed)}


def run_side(tree: Path, argv: list[str], padding: int) -> dict:
    """One benchmark run in tree under an environment padded by ``padding``
    bytes: its end-to-end metric values and its failure count."""
    env = {**os.environ, "AB_PADDING": "x" * padding}
    command = [sys.executable, "benchmarks/run.py", *argv]
    proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"ab: no result line from {tree.name} (exit {proc.returncode}):\n{proc.stderr}")
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    return {"metrics": metrics, "failed": result["failed"], "attempted": result["attempted"]}


def summary(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: the ratios NEW / BASE, the pairs each side is ahead in,
    and the quartiles of the ratios and of each side's values."""
    report = {}
    for name, direction in better.items():
        base = [pair["base"]["metrics"][name] for pair in runs]
        new = [pair["new"]["metrics"][name] for pair in runs]
        ratios = [b / a if a else float("inf") for a, b in zip(base, new)]
        sign = 1 if direction == "higher" else -1
        report[name] = {
            "better": direction,
            "ratios": ratios,
            "new_ahead": sum(sign * (b - a) > 0 for a, b in zip(base, new)),
            "base_ahead": sum(sign * (b - a) < 0 for a, b in zip(base, new)),
            "ratio_quartiles": quartiles(ratios),
            "base_quartiles": quartiles(base),
            "new_quartiles": quartiles(new),
        }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="the tree measured as BASE")
    parser.add_argument("new", type=Path, help="the tree measured as NEW")
    parser.add_argument("--workload", required=True, help="a workload of benchmarks/run.py")
    parser.add_argument("--pairs", type=int, default=10, help="runs of each side")
    parser.add_argument("--seed", type=int, default=1, help="benchmark seed, paddings and order")
    parser.add_argument("--seconds", type=float, help="measuring time of each run")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one round per run")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    for tree in (args.base, args.new):
        if not (tree / "benchmarks" / "run.py").is_file():
            parser.error(f"{tree} has no benchmarks/run.py")
    with open(args.new / "BENCHMARK.json", "r", encoding="utf-8") as fp:
        better = {metric["name"]: metric["better"] for metric in json.load(fp)["end_to_end"]}

    bench = ["--workload", args.workload, "--seed", str(args.seed), "--trace", "0"]
    if args.seconds is not None:
        bench += ["--seconds", str(args.seconds)]
    if args.smoke:
        bench.append("--smoke")
    rng = random.Random(args.seed)
    runs = []
    with tempfile.TemporaryDirectory(prefix="ab-") as workdir:
        sides = {"base": Path(workdir, "a"), "new": Path(workdir, "b")}
        for tree, copy in zip((args.base, args.new), sides.values()):
            shutil.copytree(tree, copy, ignore=shutil.ignore_patterns(*LEFT_OUT))
        for _ in range(args.pairs):
            padding = rng.randint(0, MAX_PADDING)
            order = rng.sample(list(sides), 2)
            pair = {"padding": padding, "order": order}
            for side in order:
                pair[side] = run_side(sides[side], bench, padding)
            runs.append(pair)
    report = {
        "base": checkout(args.base),
        "new": checkout(args.new),
        "workload": args.workload,
        "pairs": args.pairs,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "runs": runs,
        "metrics": summary(runs, better),
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
