import ast
import importlib
import importlib.util
import inspect
import json
import pkgutil
from pathlib import Path

import bellswap
from bellswap import cli, lhv, serialize, solver, verification


def test_every_exported_name_resolves():
    missing = [name for name in bellswap.__all__ if not hasattr(bellswap, name)]
    assert missing == []


def test_phase_and_report_types_are_not_exported():
    # a phase class is the int product and a report is a plain dict
    for name in ("PhaseClass", "SectorReport", "PerfectCorrelationReport"):
        assert name not in bellswap.__all__ and not hasattr(bellswap, name)


def test_settings_type_is_not_exported():
    # a setting is a row of the (N, 4) angle array, not a dataclass
    assert "AngleSettings" not in bellswap.__all__ and not hasattr(bellswap, "AngleSettings")


def test_context_type_is_not_exported():
    # a system carries its own kappa and label, so there is no context object
    for module in (bellswap, lhv):
        assert [name for name in dir(module) if name.endswith("Context")] == []
    assert not hasattr(lhv.ConstraintSet(+1), "context")


def test_only_lhv_knows_the_angle_grid():
    # an unknown holds its grid angles, so the writer and the CLI never
    # convert with the grid step
    for module in (serialize, cli):
        assert not hasattr(module, "ANGLE_QUANTUM")


def test_only_serialize_renders_an_unknown():
    # lhv holds numbers; the labels and float reprs that files print are
    # rendered where the files are written and read
    assert not hasattr(lhv, "float_reprs")
    assert not hasattr(lhv.ConstraintSet, "labels")


def test_only_cli_converts_degrees():
    assert list(inspect.signature(serialize.load_settings).parameters) == ["fp"]


def test_a_model_is_the_assignment_tuple():
    cs = lhv.compile_double_bell(lhv.contradiction_settings(0.0, 0.0, 1), 1)
    for solve in (solver.enumerate_solve, solver.gf2_solve):
        result = solve(cs)
        assert result.status is solver.SolveStatus.SAT and type(result.model) is tuple


def test_every_document_writes_the_format_version_constant():
    for module in (cli, verification):
        assert '"format_version": 1' not in inspect.getsource(module)


def test_only_lhv_checks_the_contradiction_phases():
    # contradiction_settings raises where rounding moves a phase, so refute
    # does not classify its settings again
    assert not hasattr(cli, "classify_zeta")


def test_verification_does_not_depend_on_the_file_format():
    # the physics self-check returns the report body; cli adds the envelope
    assert not hasattr(verification, "FORMAT_VERSION")
    tree = ast.parse(inspect.getsource(verification))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"__future__", "correlations", "quantum"}


def test_cli_builds_the_verify_qm_envelope(capsys):
    report = verification.run_qm_verification(grid=1)
    assert "format_version" not in report and "command" not in report
    assert cli.main(["verify-qm", "--grid", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc)[:2] == ["format_version", "command"]
    assert doc == {"format_version": serialize.FORMAT_VERSION, "command": "verify-qm", **report}


def test_every_module_exported_name_resolves():
    # a name deleted from a module but left in its __all__ breaks star imports
    modules = [
        importlib.import_module(f"bellswap.{info.name}")
        for info in pkgutil.iter_modules(bellswap.__path__)
        if info.name != "__main__"
    ]
    assert len(modules) >= 7
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bellswap_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_function_resolves():
    # the benchmark's tracer wraps these names; a rename must not break it
    tracing = _load_tracing()
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"bellswap.{layer}"), name, None))
    ]
    assert missing == []


def test_tracer_attributes_commands_run_by_a_cached_parser(capsys):
    # the benchmark's warm-up caches the parser before its tracer installs
    tracing = _load_tracing()
    assert cli.main(["refute"]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["refute"]) == 0
        assert cli.main(["refute", "--fig2"]) == 0
    finally:
        tracer.uninstall()
    spans = tracer.spans
    assert [name for name, *_ in spans].count("cli.main") == 2
    parents = [spans[parent][0] for name, _, _, parent, _ in spans if name == "cli.cmd_refute"]
    assert parents == ["cli.main", "cli.main"]
