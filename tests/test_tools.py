import importlib.util
import json
import subprocess
import sys
from pathlib import Path

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
    assert set(report["event_stages_ms"]) == {"sample_events", "write_events_csv"}
    assert min(report["event_stages_ms"].values()) >= 0.0
    assert (report["qm_grid"], report["qm_settings"]) == (5, 725)
    assert set(report["qm_stages_ms"]) == {
        "_rotate_all",
        "_project",
        "bell_bell_coefficients_closed_form",
        "_sweep_values",
        "_sector_arrays",
        "_correlation_report",
        "run_qm_verification",
    }
    assert min(report["qm_stages_ms"].values()) >= 0.0
    (solve,) = report["gf2_unfactorized_fig1"]
    assert solve["bases"] == 1 and solve["status"] == "sat" and solve["unknowns"] > 0
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
        "gf2_unfactorized_fig1",
    }
    for key in ("stages_ms", "cli_ms", "event_stages_ms", "qm_stages_ms"):
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
    assert set(report["cli_collections"]) == {"gen0", "gen1", "gen2"}


def test_stage_times_draws_the_refute_grid_workload_settings(monkeypatch):
    # the tool puts src and benchmarks on sys.path; undo that after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("stage_times", TOOLS / "stage_times.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    import workloads

    assert tool.grid_settings is workloads.grid_settings
    for bases, size in ((1, 49), (9, 3969)):
        settings = tool.grid(bases)
        assert len(settings) == size
        assert settings == workloads.grid_settings(workloads.rng_for(301, "refute_grid"), bases)
