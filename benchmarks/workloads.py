"""The four benchmark workloads, their seeded inputs and their output checks.

Every workload drives ``bellswap.cli.main([...])`` in-process, exactly as a
user's command would run, and times each call.  Inputs are generated here
from the benchmark seed; the program only sees the generated arguments and
files.  Every output is checked by code in this file (exit codes, report
verdicts, CSV rows, and an independent parity re-check of every certificate
and model), and a failed check counts against ``failed``.

One *round* repeats a workload's whole input once and returns a ``Round``.
Rounds of one seed are identical, so their problem-size descriptors must be
equal.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from bellswap import cli

QUARTER = math.pi / 4
OFFSETS = (0.0, QUARTER, 2 * QUARTER, 3 * QUARTER)

# Settings whose sector phases are both special, so every sampled event has a
# certain product: zeta_+ and zeta_- land on {0, pi} or pi/2.
SPECIAL_FAMILIES = (
    lambda a, b: (a, a, b, b),
    lambda a, b: (a, a + QUARTER, b, b + QUARTER),
    lambda a, b: (a, a + QUARTER, b + QUARTER, b),
    lambda a, b: (a + 2 * QUARTER, a, b + 2 * QUARTER, b),
)

#: Fixed simulate call whose CSV bytes are pinned: outputs must stay
#: byte-identical for a fixed seed whatever the implementation.
REFERENCE_SIMULATE = (
    "--phi1=0.25",
    f"--phi2={0.25 + QUARTER!r}",
    "--phi3=1.0",
    f"--phi4={1.0 + QUARTER!r}",
    "--events=5000",
    "--seed=42",
)
REFERENCE_SHA256 = "bf06921dc52eb6e13f1ec3041ae0c13995c4dbd24af39affecd3f850c7e0e134"

CSV_HEADER = "event_id,phi1,phi2,phi3,phi4,bc_outcome,pol_a,pol_d,kappa,f,a,d,product"
KAPPA = {"phi+": 1, "psi-": 1, "phi-": -1, "psi+": -1}
F_VALUE = {"phi+": 1, "phi-": 1, "psi+": -1, "psi-": -1}
POL_SIGN = {"H": 1, "V": -1}


@dataclass
class Round:
    """One pass over a workload's input."""

    latencies: list[float] = field(default_factory=list)  # seconds per request
    scale: float = 1.0  # machine-speed factor for the times of this round
    items: int = 0  # work items completed (settings, events or commands)
    attempted: int = 0
    failed: int = 0
    descriptors: Counter = field(default_factory=Counter)


def rng_for(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(workload.encode())])


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """Run one command in-process; returns (exit code, stdout, seconds).

    ``cli.main`` is looked up on every call so that a traced run reaches the
    wrapped entry point.  An exception is a failed command, never a crash of
    the benchmark.
    """
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # noqa: BLE001 - the benchmark reports it as a failure
        elapsed = perf_counter() - start
        return -1, traceback.format_exc(), elapsed
    return code, out.getvalue(), perf_counter() - start


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sector_sign(angles: tuple[float, ...], kappa: int) -> int | None:
    """Certain value of a*F*d in a sector, from the phase formula alone."""
    phi1, phi2, phi3, phi4 = angles
    residue = ((phi1 - phi2) + kappa * (phi3 - phi4)) % math.pi
    if min(residue, math.pi - residue) < 1e-9:
        return +1
    if abs(residue - math.pi / 2) < 1e-9:
        return -1
    return None


def count_components(n_variables: int, constraint_vars) -> int:
    """Connected components of the variable/constraint incidence graph."""
    parent = list(range(n_variables))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for var_ids in constraint_vars:
        root = find(var_ids[0])
        for vid in var_ids[1:]:
            other = find(vid)
            if other != root:
                parent[other] = root
    return sum(1 for v in range(n_variables) if find(v) == v)


def variable_label(entry: dict) -> str:
    return f"{entry['tag']}({', '.join(repr(float(a)) for a in entry['angles'])})"


def check_solution(system: dict, doc: dict) -> bool:
    """Re-check a solve document against the system JSON it came from.

    UNSAT: every variable occurs an even number of times across the
    certificate's constraints and their signs multiply to -1.  SAT: the model
    names every variable once, with +-1 values, and satisfies every
    constraint.
    """
    constraints = system["constraints"]
    if doc["status"] == "unsat":
        ids = [line["id"] for line in doc["certificate"]]
        if not ids or len(set(ids)) != len(ids):
            return False
        counts: Counter = Counter()
        sign = 1
        for cid in ids:
            counts.update(constraints[cid]["vars"])
            sign *= constraints[cid]["required_sign"]
        return sign == -1 and all(n % 2 == 0 for n in counts.values())
    labels = [variable_label(v) for v in system["variables"]]
    model = doc["model"]
    if len(set(labels)) != len(labels) or set(model) != set(labels):
        return False
    values = [model[label] for label in labels]
    if any(v not in (-1, 1) for v in values):
        return False
    for c in constraints:
        product = 1
        for vid in c["vars"]:
            product *= values[vid]
        if product != c["required_sign"]:
            return False
    return True


def check_certificate_lines(certificate: list[dict]) -> bool:
    """Parity check of a certificate printed with variable labels."""
    counts: Counter = Counter()
    sign = 1
    for line in certificate:
        counts.update(line["variables"])
        sign *= line["required_sign"]
    return bool(certificate) and sign == -1 and all(n % 2 == 0 for n in counts.values())


class Workload:
    """Base: inputs are built in ``__init__``; the set-up ends with ``warm_up``."""

    name = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.workdir = workdir
        self.errors: list[str] = []
        self.before_command = lambda: None

    def fail(self, round_: Round, message: str) -> None:
        round_.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{self.name}: {message}"[:500])

    def run(self, round_: Round, argv: list[str]) -> tuple[int, str, float]:
        self.before_command()
        code, out, elapsed = run_cli(argv)
        round_.attempted += 1
        return code, out, elapsed

    def warm_up(self) -> Round:
        raise NotImplementedError

    def round(self) -> Round:
        raise NotImplementedError


class QmSweep(Workload):
    """``verify-qm`` at a large grid: the quantum/correlations/verification core."""

    name = "qm_sweep"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.grid = 2 if smoke else 5
        sweep_seed = int(rng_for(seed, self.name).integers(2**31))
        self.argv = ["verify-qm", "--grid", str(self.grid), "--seed", str(sweep_seed)]

    def _check(self, round_: Round, argv: list[str], grid: int) -> float:
        code, out, elapsed = self.run(round_, argv)
        try:
            report = json.loads(out)
            settings = report["random_settings"] + report["family_settings"]
            ok = (
                code == 0
                and report["passed"] is True
                and report["random_settings"] == grid**4
                and all(check["passed"] for check in report["checks"].values())
            )
        except (ValueError, KeyError, TypeError):
            ok, settings = False, 0
        if not ok:
            self.fail(round_, f"verify-qm exit {code}: {out[:300]}")
        round_.descriptors.update(settings=settings, qm_settings=settings)
        round_.items += settings
        return elapsed

    def warm_up(self) -> Round:
        round_ = Round()
        self._check(round_, ["verify-qm", "--grid", "1", "--seed", "1"], 1)
        return round_

    def round(self) -> Round:
        round_ = Round()
        round_.latencies.append(self._check(round_, self.argv, self.grid))
        return round_


class Events(Workload):
    """``simulate`` at a special-phase setting: sampler, CSV writer, per-event check."""

    name = "events"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        rng = rng_for(seed, self.name)
        family = SPECIAL_FAMILIES[int(rng.integers(len(SPECIAL_FAMILIES)))]
        alpha, beta = rng.uniform(0.0, 2 * math.pi, size=2)
        self.angles = tuple(float(x) for x in family(float(alpha), float(beta)))
        self.n_events = 2_000 if smoke else 50_000
        self.csv = workdir / "events.csv"
        self.argv = [
            "simulate",
            *(f"--phi{i}={phi!r}" for i, phi in enumerate(self.angles, start=1)),
            f"--events={self.n_events}",
            f"--seed={int(rng.integers(2**31))}",
            f"--out={self.csv}",
        ]
        self.digest: str | None = None

    def _check_rows(self) -> str | None:
        """Independent check of every CSV row; returns a failure message.

        A row must carry its index, the input angles, and one of the outcomes
        whose derived columns follow from the Bell state and polarizations
        and whose product a*F*d is the certain value of its sector.
        """
        expected = {k: sector_sign(self.angles, k) for k in (1, -1)}
        allowed = set()
        for bell, kappa in KAPPA.items():
            for pol_a, a in POL_SIGN.items():
                for pol_d, d in POL_SIGN.items():
                    product = a * F_VALUE[bell] * d
                    if product == expected[kappa]:
                        allowed.add(
                            f"{bell},{pol_a},{pol_d},{kappa},{F_VALUE[bell]},{a},{d},{product}\n"
                        )
        angles = ",".join(repr(phi) for phi in self.angles)
        rows = 0
        with open(self.csv, "r", encoding="utf-8", newline="") as fp:
            if fp.readline() != CSV_HEADER + "\n":
                return "bad CSV header"
            for i, line in enumerate(fp):
                rows += 1
                prefix = f"{i},{angles},"
                if not line.startswith(prefix) or line[len(prefix) :] not in allowed:
                    return f"bad CSV row {i}: {line.strip()}"
        if rows != self.n_events:
            return f"CSV has {rows} rows, expected {self.n_events}"
        return None

    def warm_up(self) -> Round:
        round_ = Round()
        reference = self.workdir / "reference.csv"
        code, out, _ = self.run(round_, ["simulate", *REFERENCE_SIMULATE, f"--out={reference}"])
        if code != 0 or sha256_of(reference) != REFERENCE_SHA256:
            self.fail(round_, f"reference CSV bytes changed (exit {code}): {out[:200]}")
        return round_

    def round(self) -> Round:
        round_ = Round()
        code, out, elapsed = self.run(round_, self.argv)
        round_.latencies.append(elapsed)
        if code != 0 or not out.rstrip().endswith("sector-product violations: 0"):
            self.fail(round_, f"simulate exit {code}: {out[:300]}")
            return round_
        digest = sha256_of(self.csv)
        if self.digest is None:
            problem = self._check_rows()
            if problem:
                self.fail(round_, problem)
                return round_
            self.digest = digest
        elif digest != self.digest:
            self.fail(round_, "CSV bytes differ between repeats of one seed")
            return round_
        round_.items += self.n_events
        round_.descriptors.update(
            settings=1, qm_settings=1, events=self.n_events, csv_bytes=self.csv.stat().st_size
        )
        return round_


def arm_pairs(base: float) -> list[tuple[float, float]]:
    """The angles of one side's two arms: the base angle on both, or one arm
    offset by pi/4, pi/2 or 3pi/4 from the other, either way round."""
    out = [(base, base)]
    for offset in OFFSETS[1:]:
        out += [(base, base + offset), (base + offset, base)]
    return out


def grid_settings(rng: np.random.Generator, bases: int) -> list[list[float]]:
    """Dense angle grid: random base angles per side, and every arm pair of
    every base on the left with every arm pair of every base on the right.

    Only the base angles depend on the seed, so every seed compiles to systems
    of the same shape and size.
    """
    alphas = rng.uniform(0.0, 2 * math.pi, size=bases)
    betas = rng.uniform(0.0, 2 * math.pi, size=bases)
    return [
        [*left, *right]
        for alpha in alphas
        for beta in betas
        for left in arm_pairs(float(alpha))
        for right in arm_pairs(float(beta))
    ]


def contradiction_pair(alpha: float, beta: float) -> list[list[float]]:
    """Two settings sharing four polarizer angles whose sector phases differ
    by pi/2 in both sectors, so any factorized local model fails on them."""
    return [
        [alpha, alpha + QUARTER, beta + QUARTER, beta],
        [alpha, alpha + QUARTER, beta, beta + QUARTER],
    ]


class CompileSolve:
    """``compile`` then ``solve`` of one settings file, with the output checks."""

    def __init__(self, workload: Workload, settings: Path, n_settings: int, system: Path) -> None:
        self.workload = workload
        self.settings = settings
        self.n_settings = n_settings
        self.system = system

    def run(self, round_: Round, kappa: int, fig: int, method: str) -> list[float]:
        """Runs both commands; returns the time of each command run."""
        expect = "unsat" if fig == 1 else "sat"
        compile_argv = [
            "compile",
            f"--settings={self.settings}",
            f"--kappa={kappa}",
            f"--fig={fig}",
            f"--out={self.system}",
        ]
        if fig == 1:
            compile_argv.append("--factorize")
        code, out, elapsed = self.workload.run(round_, compile_argv)
        if code != 0 or not out.startswith(f"compiled {self.n_settings} settings"):
            self.workload.fail(round_, f"compile exit {code}: {out[:300]}")
            return [elapsed]
        json_bytes = self.system.stat().st_size
        argv = ["solve", f"--in={self.system}", f"--method={method}", f"--expect={expect}"]
        code, out, solve_elapsed = self.workload.run(round_, argv)
        times = [elapsed, solve_elapsed]
        try:
            doc = json.loads(out)
            with open(self.system, "r", encoding="utf-8") as fp:
                system = json.load(fp)
            ok = (
                code == 0
                and doc["status"] == expect
                and doc["verified"] is True
                and doc["n_variables"] == len(system["variables"])
                and doc["n_constraints"] == len(system["constraints"])
                and check_solution(system, doc)
            )
        except (ValueError, KeyError, TypeError, IndexError, OSError):
            ok = False
        if not ok:
            self.workload.fail(round_, f"solve exit {code}: {out[:300]}")
            return times
        round_.descriptors.update(
            settings=self.n_settings,
            variables=len(system["variables"]),
            constraints=len(system["constraints"]),
            components=count_components(
                len(system["variables"]), [c["vars"] for c in system["constraints"]]
            ),
            certificate_size=len(doc["certificate"] or ()),
            json_bytes=json_bytes,
        )
        return times


class RefuteGrid(Workload):
    """A dense settings file through ``compile``+``solve --method gf2``, both
    the refutable factorized figure-1 system and the satisfiable figure-2 one."""

    name = "refute_grid"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        settings = grid_settings(rng_for(seed, self.name), 2 if smoke else 9)
        path = workdir / "grid-settings.json"
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"settings": settings}, fp)
        self.job = CompileSolve(self, path, len(settings), workdir / "grid-system.json")
        tiny = workdir / "tiny-settings.json"
        with open(tiny, "w", encoding="utf-8") as fp:
            json.dump({"settings": contradiction_pair(0.5, 1.5)}, fp)
        self.warm_job = CompileSolve(self, tiny, 2, workdir / "tiny-system.json")

    def warm_up(self) -> Round:
        round_ = Round()
        self.warm_job.run(round_, 1, 1, "gf2")
        return round_

    def round(self) -> Round:
        round_ = Round()
        # one sector each: the refutation in kappa +1, the model in kappa -1
        times = self.job.run(round_, 1, 1, "gf2") + self.job.run(round_, -1, 2, "gf2")
        round_.latencies.append(sum(times))
        if not round_.failed:
            round_.items += self.job.n_settings
        return round_


class CliMix(Workload):
    """A thousand short commands: per-call fixed costs dominate.

    The mix has a fixed composition, so every seed does the same work: 250
    ``decompose --json`` (half at special-phase settings), 350 ``refute``
    (every fourth with ``--fig2``, methods alternating) and 200 ``compile`` +
    ``solve`` pairs over 25 tiny settings files, each file compiled for both
    figures, both sectors and both solvers.  The seed draws the angles and
    the order.
    """

    name = "cli_mix"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        rng = rng_for(seed, self.name)
        n_decompose, n_refute, n_files = (6, 8, 1) if smoke else (250, 350, 25)
        methods = ("enumerate", "gf2")

        def angles() -> tuple[float, float]:
            alpha, beta = rng.uniform(0.0, 2 * math.pi, size=2)
            return float(alpha), float(beta)

        steps: list[tuple] = []
        for i in range(n_decompose):
            if i % 2:
                setting = SPECIAL_FAMILIES[(i // 2) % len(SPECIAL_FAMILIES)](*angles())
            else:
                setting = tuple(float(x) for x in rng.uniform(0.0, 2 * math.pi, size=4))
            argv = ["decompose", "--json"]
            argv += [f"--phi{k}={phi!r}" for k, phi in enumerate(setting, start=1)]
            steps.append(("decompose", argv))
        for i in range(n_refute):
            alpha, beta = angles()
            argv = ["refute", f"--alpha={alpha!r}", f"--beta={beta!r}"]
            argv += [f"--kappa={1 - 2 * (i // 2 % 2)}", f"--method={methods[i % 2]}"]
            fig2 = i % 4 == 3
            steps.append(("refute", argv + ["--fig2"] * fig2, "sat" if fig2 else "unsat"))
        for j in range(n_files):
            # odd files add one grid setting to the refutable pair
            settings = contradiction_pair(*angles())
            if j % 2:
                left, right = (arm_pairs(base) for base in angles())
                settings.append([*left[int(rng.integers(7))], *right[int(rng.integers(7))]])
            path = workdir / f"tiny-{j}.json"
            with open(path, "w", encoding="utf-8") as fp:
                json.dump({"settings": settings}, fp)
            job = CompileSolve(self, path, len(settings), workdir / "tiny-system.json")
            for fig in (1, 2):
                for kappa in (1, -1):
                    for method in methods:
                        steps.append(("compile-solve", job, kappa, fig, method))
        self.steps = [steps[i] for i in rng.permutation(len(steps))]

    def _decompose(self, round_: Round, argv: list[str]) -> None:
        code, out, elapsed = self.run(round_, argv)
        round_.latencies.append(elapsed)
        try:
            doc = json.loads(out)
            ok = (
                code == 0
                and doc["max_abs_deviation"] < 1e-10
                and doc["perfect_correlations"]["holds"] is True
            )
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            self.fail(round_, f"decompose exit {code}: {out[:300]}")
            return
        round_.descriptors.update(settings=1, qm_settings=1)

    def _refute(self, round_: Round, argv: list[str], expect: str) -> None:
        code, out, elapsed = self.run(round_, argv)
        round_.latencies.append(elapsed)
        try:
            doc = json.loads(out)
            ok = code == 0 and doc["status"] == expect and doc["verified"] is True
            if expect == "unsat":
                ok = ok and check_certificate_lines(doc["certificate"])
            else:
                ok = ok and all(v in (-1, 1) for v in doc["model"].values())
        except (ValueError, KeyError, TypeError, AttributeError):
            ok = False
        if not ok:
            self.fail(round_, f"refute exit {code}: {out[:300]}")
            return
        round_.descriptors.update(settings=2, certificate_size=len(doc["certificate"] or ()))

    def warm_up(self) -> Round:
        round_ = Round()
        self._decompose(round_, ["decompose", "--json"])
        return round_

    def round(self) -> Round:
        round_ = Round()
        for step in self.steps:
            if step[0] == "decompose":
                self._decompose(round_, step[1])
            elif step[0] == "refute":
                self._refute(round_, step[1], step[2])
            else:
                job, kappa, fig, method = step[1:]
                round_.latencies.extend(job.run(round_, kappa, fig, method))
        round_.items = round_.attempted - round_.failed
        return round_


WORKLOADS = {cls.name: cls for cls in (QmSweep, Events, RefuteGrid, CliMix)}
