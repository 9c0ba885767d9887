import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import math
import pkgutil
import sys
from pathlib import Path

import numpy as np

import bellswap
from bellswap import cli, correlations, lhv, proof, quantum, serialize, solver, verification

#: Each name that proof defines, by the module that defined it before and
#: still binds it.
MOVED_TO_PROOF = {
    **dict.fromkeys(
        [
            "ANGLE_QUANTUM",
            "_MAX_NUMBER",
            "quantize_angle",
            "RULE_BELL_POLARIZATION",
            "RULE_DOUBLE_BELL",
            "RULE_FACTORIZATION",
            "RULE_FACTORED_PRODUCT",
            "_RULE_TERMS",
            "TAG_ARITY",
            "ParityConstraint",
            "ConstraintSet",
        ],
        lhv,
    ),
    "_kappa": correlations,
    **dict.fromkeys(["SolveStatus", "SolveResult", "verify_certificate"], solver),
}


def _tree(module) -> ast.Module:
    return ast.parse(inspect.getsource(module))


def _defined(module) -> set[str]:
    """The names a module's source defines at its top level."""
    names = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets)
    return names


def _package_modules() -> list:
    """Every bellswap module but __main__, imported."""
    return [
        importlib.import_module(f"bellswap.{info.name}")
        for info in pkgutil.iter_modules(bellswap.__path__)
        if info.name != "__main__"
    ]


def _siblings(module) -> set[str]:
    """The bellswap modules a module's source imports from."""
    nodes = ast.walk(_tree(module))
    return {node.module for node in nodes if isinstance(node, ast.ImportFrom) and node.level}


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


def test_only_proof_defines_the_angle_grid():
    # an unknown holds its grid angles, so the writer and the CLI never
    # convert with the grid step
    defining = [module for module in _package_modules() if "ANGLE_QUANTUM" in _defined(module)]
    assert defining == [proof]
    for module in (serialize, cli):
        assert not hasattr(module, "ANGLE_QUANTUM")


def test_proof_imports_nothing_of_bellswap():
    # the trusted base is read and checked alone: the standard library and numpy
    roots = set()
    for node in ast.walk(_tree(proof)):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import from .{node.module or ''}"
            roots.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
    assert "numpy" in roots and roots <= {"__future__", "numpy"} | sys.stdlib_module_names


def test_proof_alone_joins_the_loader_and_the_solvers():
    # a file loads and a result is written without the compiler or a solver,
    # and the solvers decide a system without the compiler
    assert "proof" in _siblings(serialize) and not {"lhv", "solver"} & _siblings(serialize)
    assert "proof" in _siblings(solver) and "lhv" not in _siblings(solver)


def test_the_moved_names_are_bound_at_their_old_paths():
    # proof defines exactly the trusted base, and every old import path
    # gives the same object, so callers and the benchmark's tracer see one
    assert _defined(proof) - {"__all__"} == MOVED_TO_PROOF.keys()
    for name, module in MOVED_TO_PROOF.items():
        assert getattr(module, name) is getattr(proof, name), f"{module.__name__}.{name}"
    for name in MOVED_TO_PROOF.keys() & set(bellswap.__all__):
        assert getattr(bellswap, name) is getattr(proof, name), name


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


def test_only_the_columns_hold_provenance():
    # a constraint's setting, phase and rule are cs.angles, cs.zetas and
    # cs.equations; a row is its unknowns and sign
    assert "Provenance" not in bellswap.__all__ and not hasattr(lhv, "Provenance")
    fields = [field.name for field in dataclasses.fields(lhv.ParityConstraint)]
    assert fields == ["var_ids", "required_sign"]


def test_only_contradiction_settings_builds_the_refute_settings():
    # refute compiles the two settings it has checked instead of having
    # contradiction_instance build and classify them again
    assert not hasattr(cli, "contradiction_instance")


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


def test_the_bell_basis_is_real():
    # exact identities over the Bell vectors read them as integers over sqrt 2
    for vector in quantum.BELL_VECTORS.values():
        assert vector.dtype == np.float64 and not vector.flags.writeable
        scaled = math.sqrt(2) * vector
        assert np.array_equal(scaled, np.round(scaled))


def test_a_solve_result_is_a_document_body(capsys, tmp_path):
    # cli puts the envelope in front of every refute and solve document
    cs = lhv.compile_factored(lhv.contradiction_settings(0.0, 0.0, 1), 1)
    body = serialize.solve_result_to_dict(cs, solver.gf2_solve(cs), verified=True)
    assert list(body) == ["status", "verified", "model", "certificate"]
    path = tmp_path / "system.json"
    with open(path, "w", encoding="utf-8") as fp:
        serialize.dump_constraint_set(cs, fp)
    for argv in (["refute"], ["solve", f"--in={path}"]):
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc)[:2] == ["format_version", "command"]
        assert doc["format_version"] == serialize.FORMAT_VERSION
        assert list(doc)[-4:] == list(body)


def test_no_parameter_takes_one_value():
    # every --out file has LF endings, both list fields of a file entry sit at
    # one depth, and every sweep draws _PER_FAMILY settings of each family
    for function, name in (
        (cli._open_out, "path"),
        (serialize._array, "items"),
        (verification.special_family_settings, "rng"),
    ):
        assert list(inspect.signature(function).parameters) == [name]


def test_every_module_exported_name_resolves():
    # a name deleted from a module but left in its __all__ breaks star imports
    modules = _package_modules()
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


def test_only_main_looks_up_cli_globals():
    # commands call their library functions by name, so a traced one runs
    # without a table of names; main alone looks up cmd_* by string
    assert not hasattr(cli, "_REFUTE_ARRANGEMENTS")
    assert inspect.getsource(cli).count("globals()") == 1
    assert "globals()" in inspect.getsource(cli.main)


def test_tracer_attributes_commands_run_by_a_cached_parser(capsys, tmp_path):
    # the benchmark's warm-up caches the parser before its tracer installs
    tracing = _load_tracing()
    assert cli.main(["refute"]) == 0
    settings = tmp_path / "settings.json"
    settings.write_text(json.dumps({"settings": [[0.0, 0.0, 0.0, 0.0]]}), encoding="utf-8")
    compile_argv = ["compile", f"--settings={settings}", "--kappa=1", f"--out={tmp_path / 'cs'}"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["refute"]) == 0
        assert cli.main(["refute", "--fig2"]) == 0
        assert cli.main([*compile_argv, "--factorize"]) == 0
        assert cli.main([*compile_argv, "--fig=2"]) == 0
    finally:
        tracer.uninstall()
    spans = tracer.spans
    assert [name for name, *_ in spans].count("cli.main") == 4
    parents = [spans[parent][0] for name, _, _, parent, _ in spans if name == "cli.cmd_refute"]
    assert parents == ["cli.main", "cli.main"]
    # the commands' library calls are traced too, as children of the command
    library = [
        (name, spans[parent][0])
        for name, _, _, parent, _ in spans
        if name.startswith(("lhv.compile", "lhv.apply"))
    ]
    assert library == [
        ("lhv.compile_factored", "cli.cmd_refute"),
        ("lhv.compile_double_bell", "cli.cmd_refute"),
        ("lhv.compile_bell_polarization", "cli.cmd_compile"),
        ("lhv.apply_factorization", "cli.cmd_compile"),
        ("lhv.compile_double_bell", "cli.cmd_compile"),
    ]
