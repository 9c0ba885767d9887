"""Span tracing of the bellswap layers, installed from outside the package.

The tracer replaces each listed public function with a wrapper at every
binding inside the ``bellswap`` module namespaces: the defining module, every
module that imported the name with ``from .x import y``, and values of
module-level dicts such as the CLI's solver table.  Each call records one span
``(name, start, end, parent, run_id)`` in memory; nothing is written until
``write_spans``.  Self time is a span's duration minus the durations of its
direct child spans (calls nest, so the children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

#: Traced functions per layer (a layer is a ``bellswap`` module).
LAYERS: dict[str, tuple[str, ...]] = {
    "quantum": (
        "make_vw_state",
        "rotate_photon",
        "apply_all_rotations",
        "bell_bell_amplitudes_numeric",
        "bell_bell_amplitudes_closed_form",
        "compute_phases",
    ),
    "correlations": (
        "classify_zeta",
        "rotated_vw_state",
        "bell_polarization_distribution",
        "joint_bell_probabilities",
        "perfect_correlation_report",
        "sample_events",
    ),
    "verification": ("special_family_settings", "run_qm_verification"),
    "lhv": (
        "compile_bell_polarization",
        "compile_double_bell",
        "compile_factored",
        "contradiction_settings",
        "contradiction_instance",
        "apply_factorization",
    ),
    "solver": ("enumerate_solve", "gf2_solve", "verify_certificate"),
    "serialize": (
        "dump_constraint_set",
        "load_constraint_set",
        "solve_result_to_dict",
        "write_events_csv",
    ),
    "cli": (
        "main",
        "build_parser",
        "cmd_decompose",
        "cmd_verify_qm",
        "cmd_simulate",
        "cmd_refute",
        "cmd_compile",
        "cmd_solve",
    ),
}

#: Functions whose arguments and results are kept for counting after a round.
OBSERVED = frozenset({"solver.enumerate_solve", "solver.gf2_solve", "correlations.sample_events"})


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.observed: list[tuple[str, tuple, object]] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, observed, clock = self.spans, self._stack, self.observed, time.perf_counter
        keep = name in OBSERVED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            if keep:
                observed.append((name, args, result))
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of every listed function by its wrapper."""
        wrappers = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"bellswap.{layer}")
            for fn_name in names:
                original = getattr(module, fn_name)
                wrappers[id(original)] = self._wrap(f"{layer}.{fn_name}", original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "bellswap" and not mod_name.startswith("bellswap."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._patches.append((value, key, item))
                            value[key] = wrappers[id(item)]

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def self_times(self) -> dict[int, dict[str, list[float]]]:
        """Per run id and span name: [calls, total self seconds]."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for index, (name, start, end, _, run_id) in enumerate(self.spans):
            entry = out[run_id][name]
            entry[0] += 1
            entry[1] += (end - start) - child_time[index]
        return out

    def write_spans(self, path, meta: dict) -> None:
        """Write the recorded spans as JSON lines, after one metadata line."""
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(json.dumps(meta) + "\n")
            for name, start, end, parent, run_id in self.spans:
                fp.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "run": run_id}
                    )
                    + "\n"
                )
