import json
import math

import numpy as np
import pytest

from bellswap import cli, quantum, serialize
from bellswap.cli import main
from bellswap.correlations import (
    OUTCOME_ORDER,
    classify_zeta,
    f_value_of,
    kappa_of,
    sample_events,
    violating_outcomes,
)
from bellswap.lhv import contradiction_instance
from bellswap.quantum import AngleSettings, BellOutcome
from bellswap.serialize import EVENT_CSV_COLUMNS, constraint_set_to_dict, write_events_csv

PI = math.pi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestDecompose:
    def test_table_output(self, capsys):
        code, out = run(capsys, "decompose")
        assert code == 0
        assert "xi  = 0.0" in out
        assert "eta = 0.0" in out
        assert "closed-form coefficients" in out
        assert "max |closed - numeric|" in out

    def test_json_output(self, capsys):
        code, out = run(capsys, "decompose", "--phi2", str(PI / 4), "--phi4", str(PI / 4), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "decompose"
        assert doc["xi"] == pytest.approx(-PI / 2)
        assert doc["eta"] == pytest.approx(0.0)
        assert doc["max_abs_deviation"] < 1e-10
        # xi = -pi/2 moves the phi+ row onto psi-
        closed = np.array(doc["closed_form"])
        assert closed[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert closed[0, 3] == pytest.approx(-0.5)

    def test_degrees_flag(self, capsys):
        code_rad, out_rad = run(capsys, "decompose", "--phi2", str(PI / 4), "--json")
        code_deg, out_deg = run(capsys, "decompose", "--phi2", "45", "--degrees", "--json")
        assert code_rad == code_deg == 0
        rad, deg = json.loads(out_rad), json.loads(out_deg)
        assert rad["xi"] == pytest.approx(deg["xi"])
        np.testing.assert_allclose(rad["closed_form"], deg["closed_form"], atol=1e-12)

    def test_zero_angle_diagonal(self, capsys):
        _, out = run(capsys, "decompose", "--json")
        closed = np.array(json.loads(out)["closed_form"])
        np.testing.assert_allclose(np.diag(closed), [-0.5, 0.5, 0.5, -0.5], atol=1e-15)


class TestVerifyQm:
    def test_default_checks_pass(self, capsys):
        code, out = run(capsys, "verify-qm", "--grid", "2", "--seed", "99")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["violations"] == []
        assert report["checks"]["kappa_mismatch_probability"]["max_value"] < 1e-12

    def test_report_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out = run(capsys, "verify-qm", "--grid", "1", "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text()) == json.loads(out)

    def test_flipped_bell_sign_is_detected(self, capsys, monkeypatch):
        # negative control: corrupt one Bell vector and the sweep must fail
        flipped = -quantum.BELL_VECTORS[BellOutcome.PSI_MINUS]
        monkeypatch.setitem(quantum.BELL_VECTORS, BellOutcome.PSI_MINUS, flipped)
        code, out = run(capsys, "verify-qm", "--grid", "1", "--seed", "3")
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        assert report["violations"]
        # the offending setting is reported
        assert len(report["violations"][0]["angles"]) == 4


def per_row_csv(angles: AngleSettings, outcomes) -> str:
    """The event CSV built one row at a time: the bytes the chunked writer must match."""
    phis = ",".join(repr(phi) for phi in angles.as_tuple())
    lines = [",".join(EVENT_CSV_COLUMNS)]
    for i, k in enumerate(outcomes):
        bell, pol_a, pol_d = OUTCOME_ORDER[k]
        f, a, d = f_value_of(bell), pol_a.sign, pol_d.sign
        lines.append(
            f"{i},{phis},{bell.value},{pol_a.value},{pol_d.value},"
            f"{kappa_of(bell)},{f},{a},{d},{a * f * d}"
        )
    return "\n".join(lines) + "\n"


class TestSimulate:
    def test_zero_events_header_only(self, capsys, tmp_path):
        out_csv = tmp_path / "events.csv"
        code, out = run(capsys, "simulate", "--events", "0", "--out", str(out_csv))
        assert code == 0
        assert out.startswith("wrote 0 events")
        assert out_csv.read_bytes() == (
            b"event_id,phi1,phi2,phi3,phi4,bc_outcome,pol_a,pol_d,kappa,f,a,d,product\n"
        )

    def test_identical_seed_identical_bytes(self, capsys, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("simulate", "--phi2", "0.3", "--events", "4000", "--seed", "7")
        code1, _ = run(capsys, *args, "--out", str(first))
        code2, _ = run(capsys, *args, "--out", str(second))
        assert code1 == code2 == 0
        assert first.read_bytes() == second.read_bytes()

    def test_zero_violations_at_zero_angles(self, capsys, tmp_path):
        out_csv = tmp_path / "events.csv"
        code, out = run(
            capsys, "simulate", "--events", "5000", "--seed", "42", "--out", str(out_csv)
        )
        assert code == 0
        assert "sector-product violations: 0" in out
        assert len(out_csv.read_text().splitlines()) == 5001

    def test_violation_count_matches_csv_rows(self, capsys, tmp_path):
        # a wide tolerance claims certainties the state does not have
        out_csv = tmp_path / "events.csv"
        argv = ["--phi2", "0.1", "--phi3", "0.05", "--tol", "0.2", "--events", "20000"]
        code, out = run(capsys, "simulate", *argv, "--seed", "3", "--out", str(out_csv))
        angles = AngleSettings(0.0, 0.1, 0.05, 0.0)
        predicted = {k: classify_zeta(angles, k, 0.2).predicted_product for k in (+1, -1)}
        rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
        expected = sum(
            1
            for row in rows
            if predicted[int(row[8])] is not None and int(row[12]) != predicted[int(row[8])]
        )
        assert len(rows) == 20000 and expected > 0
        assert code == 1
        assert out.rstrip().endswith(f"sector-product violations: {expected}")

    def test_chunk_draws_concatenate_to_one_draw(self):
        angles = AngleSettings(0.2, 0.9, 1.3, 0.4)
        chunk = cli.EVENT_CHUNK
        rng = np.random.default_rng(11)
        chunks = [sample_events(angles, size, rng) for size in (chunk, chunk, 1)]
        whole = sample_events(angles, 2 * chunk + 1, 11)
        assert np.array_equal(np.concatenate(chunks), whole)

    def test_chunked_file_matches_the_per_row_writer(self, capsys, tmp_path):
        # a wide tolerance gives violations to count across the chunks
        n = 2 * cli.EVENT_CHUNK + 1
        out_csv = tmp_path / "events.csv"
        argv = ["--phi2", "0.1", "--phi3", "0.05", "--tol", "0.2", "--events", str(n)]
        code, out = run(capsys, "simulate", *argv, "--seed", "3", "--out", str(out_csv))
        angles = AngleSettings(0.0, 0.1, 0.05, 0.0)
        outcomes = sample_events(angles, n, 3)
        assert out_csv.read_bytes() == per_row_csv(angles, outcomes).encode()
        violations = int(violating_outcomes(angles, 0.2)[outcomes].sum())
        assert violations > 0 and code == 1
        assert out == f"wrote {n} events to {out_csv}; sector-product violations: {violations}\n"

    def test_no_call_sees_more_than_one_chunk(self, capsys, monkeypatch, tmp_path):
        # memory is bounded by construction: each draw and each write
        # handles at most one chunk, and the writes continue the event ids
        n, chunk = 3 * cli.EVENT_CHUNK + 5, cli.EVENT_CHUNK
        draws, writes = [], []

        def spy_sample(angles, count, seed):
            draws.append((count, seed))
            return sample_events(angles, count, seed)

        def spy_write(fp, angles, outcomes, start=0):
            writes.append((start, len(outcomes)))
            return write_events_csv(fp, angles, outcomes, start)

        monkeypatch.setattr(cli, "sample_events", spy_sample)
        monkeypatch.setattr(cli, "write_events_csv", spy_write)
        out_csv = tmp_path / "events.csv"
        code, _ = run(capsys, "simulate", "--events", str(n), "--seed", "5", "--out", str(out_csv))
        assert code == 0
        assert [count for count, _ in draws] == [chunk, chunk, chunk, 5]
        generators = {id(seed) for _, seed in draws}
        assert len(generators) == 1 and isinstance(draws[0][1], np.random.Generator)
        assert writes == [(0, chunk), (chunk, chunk), (2 * chunk, chunk), (3 * chunk, 5)]
        rows = out_csv.read_text().splitlines()[1:]
        assert [int(row.split(",", 1)[0]) for row in rows] == list(range(n))


class TestRefute:
    def test_enumerate_at_origin(self, capsys):
        code, out = run(capsys, "refute", "--alpha", "0", "--beta", "0", "--kappa", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "unsat"
        assert doc["verified"] is True
        assert len(doc["certificate"]) == 2

    def test_gf2_negative_kappa(self, capsys):
        code, out = run(
            capsys,
            "refute",
            "--alpha", "1.1",
            "--beta", "2.3",
            "--kappa", "-1",
            "--method", "gf2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "unsat"
        assert len(doc["certificate"]) == 2

    def test_double_bell_variant_is_satisfiable(self, capsys):
        code, out = run(capsys, "refute", "--fig2", "--alpha", "0.2", "--beta", "0.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "sat"
        assert doc["verified"] is True
        assert doc["model"]


    @pytest.mark.parametrize(
        "argv",
        [
            ["--alpha", "1e300", "--beta", "1e300"],
            ["--alpha", "1e300", "--beta", "1e300", "--fig2"],
            ["--alpha", "1e8", "--beta", "0.5"],
            ["--alpha", "1e8", "--beta", "0.5", "--kappa", "-1", "--method", "gf2"],
            ["--alpha", "0.5", "--beta", "1e8", "--fig2"],
            ["--alpha", "1e10", "--beta", "0.5", "--degrees"],
        ],
        ids=["1e300", "1e300-fig2", "1e8", "1e8-negative-kappa", "1e8-fig2", "1e10-degrees"],
    )
    def test_angles_that_lose_the_offsets_exit_2_with_one_line(self, capsys, argv):
        assert main(["refute", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "lose their pi/4 offsets" in captured.err

    @pytest.mark.parametrize("kappa", ["1", "-1"])
    @pytest.mark.parametrize("fig2,status", [([], "unsat"), (["--fig2"], "sat")])
    def test_large_angles_that_keep_the_offsets_still_work(self, capsys, kappa, fig2, status):
        argv = ["refute", "--alpha", "1e7", "--beta", "0.5", "--kappa", kappa, *fig2]
        code, out = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == status
        assert doc["verified"] is True


class TestCompileSolve:
    def write_settings(self, tmp_path, settings):
        path = tmp_path / "settings.json"
        path.write_text(json.dumps({"settings": settings}))
        return str(path)

    def test_four_setting_factorized_system_is_unsat(self, capsys, tmp_path):
        alpha, beta = 0.3, 1.7
        settings = [
            [alpha, alpha + PI / 4, beta + PI / 4, beta],
            [alpha, alpha + PI / 4, beta, beta + PI / 4],
            [alpha, alpha, beta, beta],
            [alpha + PI / 4, alpha + PI / 4, beta + PI / 4, beta + PI / 4],
        ]
        settings_path = self.write_settings(tmp_path, settings)
        cs_path = tmp_path / "system.json"
        code, out = run(
            capsys,
            "compile",
            "--settings", settings_path,
            "--kappa", "1",
            "--fig", "1",
            "--factorize",
            "--out", str(cs_path),
        )
        assert code == 0
        assert "constraints" in out
        code, out = run(capsys, "solve", "--in", str(cs_path), "--method", "gf2")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "unsat"
        assert doc["verified"] is True

    def test_same_settings_double_bell_is_sat(self, capsys, tmp_path):
        alpha, beta = 0.3, 1.7
        settings = [
            [alpha, alpha + PI / 4, beta + PI / 4, beta],
            [alpha, alpha + PI / 4, beta, beta + PI / 4],
        ]
        settings_path = self.write_settings(tmp_path, settings)
        cs_path = tmp_path / "system.json"
        code, _ = run(
            capsys,
            "compile",
            "--settings", settings_path,
            "--kappa", "1",
            "--fig", "2",
            "--out", str(cs_path),
        )
        assert code == 0
        code, out = run(capsys, "solve", "--in", str(cs_path), "--expect", "sat")
        assert code == 0
        assert json.loads(out)["status"] == "sat"

    def test_generic_settings_compile_to_empty_sat_system(self, capsys, tmp_path):
        settings_path = self.write_settings(tmp_path, [[0.0, 0.3, 0.7, 0.1]])
        cs_path = tmp_path / "system.json"
        code, out = run(
            capsys,
            "compile",
            "--settings", settings_path,
            "--kappa", "1",
            "--out", str(cs_path),
        )
        assert code == 0
        assert "0 constraints" in out
        code, out = run(capsys, "solve", "--in", str(cs_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "sat"
        assert doc["model"] == {}

    def test_expectation_mismatch_fails(self, capsys, tmp_path):
        settings_path = self.write_settings(tmp_path, [[0.0, 0.0, 0.0, 0.0]])
        cs_path = tmp_path / "system.json"
        run(capsys, "compile", "--settings", settings_path, "--kappa", "1", "--out", str(cs_path))
        code, _ = run(capsys, "solve", "--in", str(cs_path), "--expect", "unsat")
        assert code == 1

    def test_missing_settings_file(self, capsys, tmp_path):
        code = main(
            ["compile", "--settings", str(tmp_path / "absent.json"), "--kappa", "1",
             "--out", str(tmp_path / "x.json")]
        )
        assert code == 2


def _contradiction_document(path: list, value) -> str:
    """The contradiction_instance(0, 0, +1) file with one field replaced;
    int() or float() would read each of these values as a valid system."""
    doc = constraint_set_to_dict(contradiction_instance(0.0, 0.0, +1))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(doc)


class TestMalformedInput:
    @pytest.mark.parametrize(
        "command,content",
        [
            ("compile", '{"settings": null}'),
            ("compile", '{"settings": [null]}'),
            ("solve", "[]"),
            ("solve", '{"format_version": 1, "context": {"kappa": 1}, "variables": null}'),
            (
                "solve",
                '{"format_version": 1, "context": {"kappa": 1},'
                ' "variables": [{"id": 0, "tag": "A", "angles": [1e999]}], "constraints": []}',
            ),
            ("compile", "[[true, 0, 0, 0]]"),
            ("compile", '["1234"]'),
            ("solve", _contradiction_document(["constraints", 0, "required_sign"], 1.5)),
            ("solve", _contradiction_document(["constraints", 0, "required_sign"], True)),
            ("solve", _contradiction_document(["constraints", 0, "required_sign"], -1.5)),
            ("solve", _contradiction_document(["constraints", 0, "vars", 0], 0.9)),
            ("solve", _contradiction_document(["context", "kappa"], 1.7)),
            ("solve", _contradiction_document(["variables", 0, "angles"], [True])),
            ("solve", _contradiction_document(["variables", 0, "angles", 0], "0.5")),
            ("solve", _contradiction_document(["constraints", 0, "provenance", "angles", 0], True)),
            ("solve", _contradiction_document(["constraints", 0, "provenance", "zeta"], "0.5")),
            ("solve", _contradiction_document(["constraints", 0, "provenance", "zeta"], math.nan)),
            (
                "solve",
                _contradiction_document(["constraints", 0, "provenance", "angles", 0], math.inf),
            ),
            ("solve", _contradiction_document(["context", "label"], None)),
            ("solve", _contradiction_document(["context", "label"], {"x": [1]})),
            ("solve", _contradiction_document(["constraints", 0, "provenance", "equation"], 5)),
            ("compile", '{"settings": {}}'),
            ("compile", '{"settings": ""}'),
            ("compile", f"[[{10**400}, 0, 0, 0]]"),
            ("compile", "[[1e300, 1e300, 0, 0]]"),
            ("compile", "[" * 100_000),
            ("solve", "[" * 100_000),
        ],
        ids=[
            "null-settings",
            "null-setting",
            "bare-list",
            "null-variables",
            "infinite-angle",
            "bool-angle",
            "string-setting",
            "fractional-sign",
            "bool-sign",
            "negative-fractional-sign",
            "fractional-variable-id",
            "fractional-kappa",
            "bool-variable-angle",
            "string-variable-angle",
            "bool-provenance-angle",
            "string-zeta",
            "nan-zeta",
            "infinite-provenance-angle",
            "null-label",
            "object-label",
            "number-equation",
            "object-settings",
            "string-settings",
            "oversized-int-angle",
            "angle-without-a-key",
            "deeply-nested-settings",
            "deeply-nested-system",
        ],
    )
    def test_exit_2_with_one_line(self, capsys, tmp_path, command, content):
        infile, out = tmp_path / "in.json", tmp_path / "out.json"
        infile.write_text(content)
        if command == "compile":
            argv = ["compile", "--settings", str(infile), "--kappa", "1", "--out", str(out)]
        else:
            argv = ["solve", "--in", str(infile)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: cannot read")
        assert not out.exists()

    def test_loader_bug_is_not_reported_as_malformed_input(self, monkeypatch, tmp_path):
        infile = tmp_path / "system.json"
        infile.write_text(json.dumps(constraint_set_to_dict(contradiction_instance(0.0, 0.0, +1))))
        assert main(["solve", "--in", str(infile)]) == 0

        def broken(phi):
            raise TypeError("a bug in the loader")

        monkeypatch.setattr(serialize, "quantize_angle", broken)
        with pytest.raises(TypeError, match="a bug in the loader"):
            main(["solve", "--in", str(infile)])

    def test_enumeration_guard_exits_2_with_one_line(self, capsys, tmp_path):
        settings = tmp_path / "settings.json"
        # two bases per side, three offsets per arm: 32 unknowns, over the guard
        rows = [
            [a, a + da, b + db, b]
            for a in (0.3, 1.1)
            for b in (1.7, 2.9)
            for da in (0.0, PI / 4, PI / 2)
            for db in (0.0, PI / 4, PI / 2)
        ]
        settings.write_text(json.dumps({"settings": rows}))
        system = tmp_path / "system.json"
        compile_argv = ["compile", "--settings", str(settings), "--kappa", "1"]
        assert main([*compile_argv, "--factorize", "--out", str(system)]) == 0
        capsys.readouterr()
        assert main(["solve", "--in", str(system), "--method", "enumerate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: enumeration guard exceeded")
        assert main(["solve", "--in", str(system), "--method", "gf2"]) == 0

    @pytest.mark.parametrize("command", ["simulate", "verify-qm", "compile"])
    def test_unwritable_out_exits_2_with_one_line(self, capsys, monkeypatch, tmp_path, command):
        settings = tmp_path / "settings.json"
        settings.write_text('{"settings": [[0, 0, 0, 0]]}')
        extra, work = {
            "simulate": ([], "sample_events"),
            "verify-qm": (["--grid", "1"], "run_qm_verification"),
            "compile": (["--settings", str(settings), "--kappa", "1"], "compile_bell_polarization"),
        }[command]

        def must_not_run(*args, **kwargs):
            raise AssertionError(f"{work} ran before --out was opened")

        # the path is checked before the work starts, not after it
        monkeypatch.setattr(cli, work, must_not_run)
        assert main([command, *extra, "--out", str(tmp_path / "absent" / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: cannot write output:")


class TestUsageErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--bogus", "1"])
        assert exc.value.code == 2

    def test_bad_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["refute", "--kappa", "2"])
        assert exc.value.code == 2

    def test_malformed_angle(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--phi1", "not-a-number"])
        assert exc.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert message.endswith("argument --phi1: must be a finite number, got not-a-number")

    @pytest.mark.parametrize(
        "value", ["nan", "inf", "-inf", "-1", "0", "0.7853981633974483", "1.0", "abc"]
    )
    @pytest.mark.parametrize("command", ["decompose", "verify-qm", "simulate", "compile"])
    def test_tol_outside_zero_to_quarter_pi(self, capsys, tmp_path, command, value):
        settings, out = tmp_path / "settings.json", tmp_path / "out"
        settings.write_text('{"settings": [[0, 0.5, 0, 0]]}')
        extra = {
            "decompose": [],
            "verify-qm": ["--grid", "1", "--out", str(out)],
            "simulate": ["--out", str(out)],
            "compile": ["--settings", str(settings), "--kappa", "1", "--out", str(out)],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, f"--tol={value}", *extra])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = captured.err.splitlines()[-1]
        assert message.endswith(f"argument --tol: must be > 0 and < pi/4, got {value}")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "abc"])
    @pytest.mark.parametrize(
        "command,flag",
        [
            ("decompose", "--phi1"),
            ("decompose", "--phi4"),
            ("simulate", "--phi2"),
            ("simulate", "--phi3"),
            ("refute", "--alpha"),
            ("refute", "--beta"),
        ],
    )
    def test_non_finite_angle(self, capsys, tmp_path, command, flag, value):
        out = tmp_path / "events.csv"
        extra = ["--out", str(out)] if command == "simulate" else []
        with pytest.raises(SystemExit) as exc:
            main([command, f"{flag}={value}", *extra])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = captured.err.splitlines()[-1]
        assert message.endswith(f"argument {flag}: must be a finite number, got {value}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("simulate", "--seed", "-1"),
            ("verify-qm", "--seed", "-1"),
            ("verify-qm", "--seed", "abc"),
            ("simulate", "--events", "-1"),
            ("simulate", "--events", "abc"),
            ("verify-qm", "--grid", "0"),
            ("verify-qm", "--grid", "1.5"),
        ],
    )
    def test_bad_integer_flag(self, capsys, tmp_path, command, flag, value):
        allowed = "an integer >= 1" if flag == "--grid" else "an integer >= 0"
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, f"{flag}={value}", "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = captured.err.splitlines()[-1]
        assert message.endswith(f"argument {flag}: must be {allowed}, got {value}")
        assert not out.exists()


class TestParserReuse:
    def test_parser_is_built_once(self, capsys, monkeypatch):
        builds = []
        original = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None, raising=False)
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or original())
        for argv in (["refute"], ["decompose", "--json"], ["refute", "--fig2"]):
            assert main(argv) == 0
        assert builds == [1]

    def test_patched_command_runs_after_the_parser_is_cached(self, capsys, monkeypatch):
        assert main(["refute"]) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_refute", lambda args: calls.append(args.kappa) or 7)
        assert main(["refute", "--kappa=-1"]) == 7
        assert calls == [-1]

    def test_no_state_leaks_between_calls(self, capsys):
        sequence = [
            ["decompose", "--json"],
            ["decompose"],
            ["decompose", "--bogus", "1"],
            ["refute", "--fig2", "--kappa=-1"],
            ["refute"],
            ["verify-qm", "--grid", "1"],
            ["--help"],
            ["refute", "--help"],
        ]

        def fresh(argv):
            args = cli.build_parser().parse_args(argv)
            return getattr(cli, "cmd_" + args.command.replace("-", "_"))(args)

        def outcome(call, argv):
            try:
                code = call(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        for _ in range(2):
            codes = []
            for argv in sequence:
                cached = outcome(main, argv)
                assert cached == outcome(fresh, argv), argv
                codes.append(cached[0])
            assert codes == [0, 0, 2, 0, 0, 0, 0, 0]
