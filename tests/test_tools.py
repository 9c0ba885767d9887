import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def stage_times(*argv: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "stage_times.py"), *argv],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


def test_stage_times_smallest_size():
    report = stage_times("--bases", "1", "--repeat", "1", "--solve-bases", "1")
    if report["commit"] is None:
        assert report["dirty"] is None
    else:
        assert re.fullmatch("[0-9a-f]{40}", report["commit"]) and report["dirty"] in (True, False)
    assert "runs" not in report and "quartiles_ms" not in report
    assert report["settings"] == 49
    assert report["gc_paused"] is True
    stages = report["stages_ms"]
    for name in (
        "load_settings_fig1",
        "compile_fig1",
        "apply_factorization",
        "parse_fig1",
        "constraint_set_from_dict_fig1",
        "compile_fig2",
        "constraint_set_from_dict_fig2",
        "solve_result_to_dict_fig2",
    ):
        assert stages[name] >= 0.0
    assert report["round_ms"] == sum(stages.values())
    commands = {"compile_fig1", "solve_fig1", "compile_fig2", "solve_fig2"}
    assert set(report["cli_ms"]) == commands and min(report["cli_ms"].values()) > 0.0
    assert set(report["cli_collections"]) == {"gen0", "gen1", "gen2"}
    assert min(report["cli_collections"].values()) >= 0.0
    assert report["events"] == 100_000
    events = report["event_stages_ms"]
    assert set(events) == {"sample_events", "write_events_csv", "simulate_cli", "simulate_cli_fresh"}
    assert min(events.values()) >= 0.0
    assert min(events["simulate_cli"], events["simulate_cli_fresh"]) > 0.0
    assert (report["qm_grid"], report["qm_settings"]) == (5, 725)
    assert set(report["qm_stages_ms"]) == {
        "_rotate_all",
        "_project",
        "_outcome_probabilities",
        "bell_bell_coefficients_closed_form",
        "_sweep_values",
        "_sector_arrays",
        "_correlation_report",
        "run_qm_verification",
    }
    assert min(report["qm_stages_ms"].values()) >= 0.0
    assert set(report["one_setting_ms"]) == {"bell_bell_coefficients", "_correlation_report"}
    assert min(report["one_setting_ms"].values()) > 0.0
    (solve,) = report["gf2_unfactorized_fig1"]
    assert solve["bases"] == 1 and solve["status"] == "sat" and solve["unknowns"] > 0
    assert solve["verify_ms"] > 0.0
    assert set(report["enumerate_solve_ms"]) == {"fig1_factorized", "fig2"}
    assert min(report["enumerate_solve_ms"].values()) > 0.0
    lines = report["src_lines"]
    total = lines.pop("total")
    assert {"lhv.py", "serialize.py"} <= set(lines) and min(lines.values()) > 0
    assert total == sum(lines.values())


def test_stage_times_runs_report_quartiles_beside_the_best():
    report = stage_times("--bases", "1", "--repeat", "1", "--solve-bases", "1", "2", "--runs", "3")
    assert report["runs"] == 3
    spread = report["quartiles_ms"]
    assert set(spread) == {
        "stages_ms",
        "round_ms",
        "cli_ms",
        "event_stages_ms",
        "qm_stages_ms",
        "one_setting_ms",
        "enumerate_solve_ms",
        "gf2_unfactorized_fig1",
        "verify_unfactorized_fig1",
    }
    sections = (
        "stages_ms",
        "cli_ms",
        "event_stages_ms",
        "qm_stages_ms",
        "one_setting_ms",
        "enumerate_solve_ms",
    )
    for key in sections:
        assert set(spread[key]) == set(report[key])
        for name, (q1, median, q3) in spread[key].items():
            # the best of three runs is at most their first quartile
            assert 0.0 <= report[key][name] <= q1 <= median <= q3
    assert report["round_ms"] == sum(report["stages_ms"].values())
    assert report["round_ms"] <= spread["round_ms"][0] <= spread["round_ms"][2]
    solves = report["gf2_unfactorized_fig1"]
    assert [solve["bases"] for solve in solves] == [1, 2]
    for solve, (q1, median, q3) in zip(solves, spread["gf2_unfactorized_fig1"]):
        assert 0.0 < solve["ms"] <= q1 <= median <= q3
    for solve, (q1, median, q3) in zip(solves, spread["verify_unfactorized_fig1"]):
        assert 0.0 < solve["verify_ms"] <= q1 <= median <= q3
    assert set(report["cli_collections"]) == {"gen0", "gen1", "gen2"}


def load_stage_times(monkeypatch):
    """The tool as a module; the src and benchmarks entries it puts on
    sys.path are undone after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("stage_times", TOOLS / "stage_times.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_stage_times_draws_the_refute_grid_workload_settings(monkeypatch):
    tool = load_stage_times(monkeypatch)
    import workloads

    assert tool.grid_settings is workloads.grid_settings
    for bases, size in ((1, 49), (9, 3969)):
        settings = tool.grid(bases)
        assert len(settings) == size
        assert settings == workloads.grid_settings(workloads.rng_for(301, "refute_grid"), bases)


def test_stage_times_times_the_verify_qm_batch(monkeypatch):
    # qm_batch restates run_qm_verification's draws; the sweep's own rows pin it
    tool = load_stage_times(monkeypatch)
    from bellswap import verification

    rows = []
    coefficients = verification.bell_bell_coefficients

    def recording(batch):
        rows.append(np.array(batch))
        return coefficients(batch)

    monkeypatch.setattr(verification, "bell_bell_coefficients", recording)
    verification.run_qm_verification(tool.QM_GRID, seed=tool.SEED)
    swept, batch = np.concatenate(rows), tool.qm_batch()
    assert swept.shape == batch.shape == (725, 4)
    assert swept.tobytes() == batch.tobytes()


def test_stage_times_draws_the_events_workload_inputs(monkeypatch):
    tool = load_stage_times(monkeypatch)
    import workloads

    assert tool.Events is workloads.Events
    commands, drawn = [], []
    sample_events = tool.correlations.sample_events

    def sampling(angles, n, rng):
        drawn.append(angles)
        return sample_events(angles, n, rng)

    def recording(argv):
        commands.append(argv)
        return 0

    monkeypatch.setattr(tool.correlations, "sample_events", sampling)
    monkeypatch.setattr(tool.cli, "main", recording)
    stages = {"sample_events", "write_events_csv", "simulate_cli", "simulate_cli_fresh"}
    assert set(tool.event_stages(2)) == stages
    events = workloads.Events(301, False, Path("unused"))
    (*argv, out), again, *fresh = commands
    assert argv == events.argv[:-1] and out.startswith("--out=") and out.endswith("events.csv")
    assert again == [*argv, out]
    # each fresh run is the same command writing a new file beside the workload's
    assert [command[:-1] for command in fresh] == [argv, argv]
    paths = [Path(command[-1].removeprefix("--out=")) for command in [[out], *fresh]]
    assert len(set(paths)) == 3 and len({path.parent for path in paths}) == 1
    assert drawn == [events.angles] * 2


def test_stage_times_checkout_is_null_outside_a_checkout(monkeypatch, tmp_path):
    tool = load_stage_times(monkeypatch)
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    assert tool.checkout() == {"commit": None, "dirty": None}


def test_stage_times_checkout_sees_a_changed_tracked_file(monkeypatch, tmp_path):
    if shutil.which("git") is None:
        pytest.skip("git is missing")

    def git(*argv):
        subprocess.run(["git", *argv], cwd=tmp_path, capture_output=True, check=True)

    git("init", "-q")
    (tmp_path / "tracked.txt").write_text("a\n", encoding="utf-8")
    git("add", "tracked.txt")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "one")
    tool = load_stage_times(monkeypatch)
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    clean = tool.checkout()
    assert re.fullmatch("[0-9a-f]{40}", clean["commit"]) and clean["dirty"] is False
    (tmp_path / "untracked.txt").write_text("b\n", encoding="utf-8")
    assert tool.checkout() == clean
    (tmp_path / "tracked.txt").write_text("c\n", encoding="utf-8")
    assert tool.checkout() == {**clean, "dirty": True}
