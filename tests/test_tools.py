import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_stage_times_smallest_size():
    argv = ["--bases", "1", "--repeat", "1", "--solve-bases", "1"]
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "stage_times.py"), *argv],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    report = json.loads(proc.stdout)
    assert report["settings"] == 49
    stages = report["stages_ms"]
    for name in (
        "load_settings_fig1",
        "compile_fig1",
        "apply_factorization",
        "json_loads_fig1",
        "constraint_set_from_dict_fig1",
        "compile_fig2",
        "constraint_set_from_dict_fig2",
        "solve_result_to_dict_fig2",
    ):
        assert stages[name] >= 0.0
    assert report["round_ms"] == sum(stages.values())
    assert report["events"] == 100_000
    assert set(report["event_stages_ms"]) == {"sample_events", "write_events_csv"}
    assert min(report["event_stages_ms"].values()) >= 0.0
    (solve,) = report["gf2_unfactorized_fig1"]
    assert solve["bases"] == 1 and solve["status"] == "sat" and solve["unknowns"] > 0
