import errno
import gc
import io
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from instance_gen import grid_settings, per_row_csv

from bellswap import cli, quantum, serialize
from bellswap.cli import main
from bellswap.correlations import (
    MAX_COMPILE_TOL,
    classify_zeta,
    sample_events,
    violating_outcomes,
)
from bellswap.lhv import compile_double_bell, contradiction_instance
from bellswap.quantum import BellOutcome
from bellswap.serialize import EVENT_CHUNK, constraint_set_to_dict, write_events_csv

PI = math.pi
COMPILE_TOL_BOUND = (
    f"> 0 and <= {MAX_COMPILE_TOL!r}, the widest phase window whose constraints stay certain"
)


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

    # zeta = -0.1 in both sectors: --tol 0.2 claims a*F*d = +1 with certainty,
    # which fails with residual sin(0.1)**2 / 2
    WIDE = ("--phi2", "0.1", "--tol", "0.2")

    def test_failed_claim_exits_1(self, capsys):
        code, out = run(capsys, "decompose", *self.WIDE)
        verdicts = [line for line in out.splitlines() if line.startswith("sector kappa=")]
        assert code == 1
        assert verdicts == [
            f"sector kappa={kappa}: zeta = -0.1: claim fails: product a*F*d = +1 with"
            " certainty (residual 5.0e-03, pairing residual 5.0e-03)"
            for kappa in ("+1", "-1")
        ]

    def test_failed_claim_exits_1_with_json(self, capsys):
        code, out = run(capsys, "decompose", *self.WIDE, "--json")
        report = json.loads(out)["perfect_correlations"]
        assert code == 1
        assert report["holds"] is False
        assert [sector["product_certain"] for sector in report["sectors"]] == [False, False]

    def test_claims_that_hold_keep_their_verdict(self, capsys):
        angles = ("--phi2", str(PI / 4), "--phi4", str(PI / 4))
        code, out = run(capsys, "decompose", *angles, "--tol", "0.3")
        assert code == 0
        plus, minus = out.splitlines()[-2:]
        assert plus.startswith(
            "sector kappa=+1: zeta = -1.5707963267948966: product a*F*d = -1 with certainty"
            " (residual "
        )
        assert minus.startswith(
            "sector kappa=-1: zeta = 0.0: product a*F*d = +1 with certainty (residual "
        )


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


class TestRealSourceState:
    """The source state and its rotations are real; what the commands print
    must be what the complex state printed.  Compared in process, so the
    check holds on any BLAS build, where pinned digests would not."""

    ANGLES = [
        ["--phi1=0", "--phi2=0", "--phi3=0", "--phi4=0"],
        ["--phi1=-0.0", "--phi2=0.0", "--phi3=-0.0", "--phi4=0.0"],
        ["--phi1=0.25", f"--phi2={0.25 + PI / 4!r}", "--phi3=1.0", f"--phi4={1.0 + PI / 4!r}"],
        [f"--phi1={3 * PI / 4!r}", f"--phi2={-PI / 2!r}", f"--phi3={PI!r}", "--phi4=0"],
        ["--phi1=0.3", "--phi2=1.1", "--phi3=-2.5", "--phi4=4.0"],
        ["--phi1=1e6", "--phi2=-1e6", "--phi3=0.001", "--phi4=123456.789"],
    ]
    ARGVS = [
        *(["decompose", *angles] for angles in ANGLES),
        *(["decompose", "--json", *angles] for angles in ANGLES),
        *(["verify-qm", "--grid", "2", "--seed", str(seed)] for seed in (0, 12345)),
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_stdout_equals_the_complex_state_output(self, capsys, monkeypatch, argv):
        real = run(capsys, *argv)
        make_real, calls = quantum.make_vw_state, []

        def make_complex():
            calls.append(1)
            return make_real().astype(complex)

        monkeypatch.setattr(quantum, "make_vw_state", make_complex)
        assert run(capsys, *argv) == real
        assert calls


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
        angles = (0.0, 0.1, 0.05, 0.0)
        predicted = {k: classify_zeta(angles, k, 0.2) or None for k in (+1, -1)}
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
        angles = (0.2, 0.9, 1.3, 0.4)
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
        angles = (0.0, 0.1, 0.05, 0.0)
        outcomes = sample_events(angles, n, 3)
        assert out_csv.read_bytes() == per_row_csv(angles, outcomes).encode()
        violations = int(violating_outcomes(angles, 0.2)[outcomes].sum())
        assert violations > 0 and code == 1
        assert out == f"wrote {n} events to {out_csv}; sector-product violations: {violations}\n"

    def test_no_call_sees_more_than_one_chunk(self, capsys, monkeypatch, tmp_path):
        # memory is bounded by construction: one writer call is fed chunk by
        # chunk, each draw handles at most one chunk and is written before
        # the next draw, and the rows carry the event ids in order
        n, chunk = 3 * cli.EVENT_CHUNK + 5, cli.EVENT_CHUNK
        steps, generators, calls = [], set(), []

        def spy_sample(angles, count, seed):
            steps.append(("draw", count))
            generators.add(seed)
            return sample_events(angles, count, seed)

        def spy_write(fp, angles, chunks):
            def write(text):
                steps.append(("write", text.count("\n")))
                return fp.write(text)

            calls.append(angles)
            return write_events_csv(SimpleNamespace(write=write), angles, chunks)

        monkeypatch.setattr(cli, "sample_events", spy_sample)
        monkeypatch.setattr(cli, "write_events_csv", spy_write)
        out_csv = tmp_path / "events.csv"
        code, _ = run(capsys, "simulate", "--events", str(n), "--seed", "5", "--out", str(out_csv))
        assert code == 0 and len(calls) == 1
        assert len(generators) == 1 and isinstance(generators.pop(), np.random.Generator)
        assert steps == [
            ("draw", chunk),
            ("write", chunk + 1),  # the header rides in the first write
            ("draw", chunk),
            ("write", chunk),
            ("draw", chunk),
            ("write", chunk),
            ("draw", 5),
            ("write", 5),
        ]
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


class TestUnverifiedAnswer:
    """An answer that verify_certificate rejects exits 1 even when its status
    is the one expected, and the document says it is not verified."""

    @pytest.fixture(autouse=True)
    def reject_every_answer(self, monkeypatch):
        monkeypatch.setattr(cli, "verify_certificate", lambda cs, result: False)

    @pytest.mark.parametrize("method", ["enumerate", "gf2"])
    @pytest.mark.parametrize("fig2,status", [([], "unsat"), (["--fig2"], "sat")])
    def test_refute(self, capsys, method, fig2, status):
        code, out = run(capsys, "refute", "--method", method, *fig2)
        doc = json.loads(out)
        assert (code, doc["status"], doc["verified"]) == (1, status, False)

    @pytest.mark.parametrize("expect", [[], ["--expect", "unsat"]])
    def test_solve(self, capsys, tmp_path, expect):
        path = tmp_path / "system.json"
        with open(path, "w", encoding="utf-8") as fp:
            serialize.dump_constraint_set(contradiction_instance(0.0, 0.0, +1), fp)
        code, out = run(capsys, "solve", "--in", str(path), *expect)
        doc = json.loads(out)
        assert (code, doc["status"], doc["verified"]) == (1, "unsat", False)


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

    def test_wide_tol_fig2_false_refutation_is_refused_at_compile(self, capsys, tmp_path):
        # every 4-tuple of five angles: at --tol 0.2 the fig-2 system, which
        # has a local model, compiled to 195 constraints with a verified UNSAT
        # certificate; the tolerance now stops at compile
        angles = [0, 0.35, 0.7, 1.05, 1.4]
        settings_path = self.write_settings(
            tmp_path, [list(s) for s in itertools.product(angles, repeat=4)]
        )
        cs_path = tmp_path / "system.json"
        argv = ["compile", "--settings", settings_path, "--fig", "2", "--kappa", "1"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tol", "0.2", "--out", str(cs_path)])
        assert exc.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert message.endswith(f"argument --tol: must be {COMPILE_TOL_BOUND}, got 0.2")
        assert not cs_path.exists()
        code, out = run(capsys, *argv, "--out", str(cs_path))
        assert (code, out.split(" -> ")[1].split(":")[0]) == (0, "50 variables, 85 constraints")
        code, out = run(capsys, "solve", "--in", str(cs_path), "--method", "gf2", "--expect", "sat")
        assert code == 0

    @pytest.mark.parametrize("fig", ["1", "2"])
    def test_degrees_file_compiles_as_its_radians(self, capsys, tmp_path, fig):
        degrees = [list(s) for s in itertools.product([0, 15, 45, 60, 90, 135], repeat=4)]
        radians = np.radians(degrees).tolist()  # json writes each as its repr
        outputs = []
        for name, settings, flags in (("deg", degrees, ["--degrees"]), ("rad", radians, [])):
            settings_path = tmp_path / f"{name}.json"
            settings_path.write_text(json.dumps(settings))
            cs_path = tmp_path / f"{name}-system.json"
            argv = ["compile", "--settings", str(settings_path), "--kappa", "1", "--fig", fig]
            code, out = run(capsys, *argv, *flags, "--out", str(cs_path))
            assert code == 0 and " 0 constraints" not in out
            outputs.append((out.split(": ")[0], cs_path.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("kappa", ["1", "-1"])
    def test_label_is_written_and_echoed(self, capsys, tmp_path, kappa):
        settings_path = self.write_settings(tmp_path, [[0.0, 0.0, 0.0, 0.0]])
        cs_path = tmp_path / "system.json"
        argv = ["compile", "--settings", settings_path, "--kappa", kappa, "--label", "grid é"]
        code, _ = run(capsys, *argv, "--out", str(cs_path))
        assert code == 0
        context = {"kappa": int(kappa), "label": "grid é"}
        assert '"label": "grid \\u00e9"' in cs_path.read_text(encoding="utf-8")
        assert json.loads(cs_path.read_text(encoding="utf-8"))["context"] == context
        code, out = run(capsys, "solve", "--in", str(cs_path))
        assert code == 0 and json.loads(out)["context"] == context

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

    @pytest.mark.parametrize("command,kind", [("compile", "settings"), ("solve", "constraint")])
    @pytest.mark.parametrize(
        "content,message",
        [
            (
                b'\xef\xbb\xbf{"settings": []}',
                "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
            ),
            (b"{} {}", "Extra data: line 1 column 4 (char 3)"),
        ],
        ids=["utf-8-bom", "extra-data"],
    )
    def test_json_module_messages(self, capsys, tmp_path, command, kind, content, message):
        """The loaders parse with json.load itself, whose messages name the
        malformed text."""
        infile, out = tmp_path / "in.json", tmp_path / "out.json"
        infile.write_bytes(content)
        if command == "compile":
            argv = ["compile", "--settings", str(infile), "--kappa", "1", "--out", str(out)]
        else:
            argv = ["solve", "--in", str(infile)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: cannot read {kind} file: {message}\n")
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

    @pytest.mark.parametrize(
        "argv", [["refute"], ["decompose", "--json"], ["verify-qm", "--grid", "1"]]
    )
    def test_full_stdout_exits_2_with_one_line(self, capsys, monkeypatch, argv):
        # any write error reaches main, not only a reader that went away
        class FullDevice:
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(sys, "stdout", FullDevice())
        assert main(argv) == 2
        message = "error: cannot write output: [Errno 28] No space left on device\n"
        assert capsys.readouterr().err == message


class TestOutFile:
    """An --out file is written over in place and, if longer, cut at the
    bytes written: it ends exactly as a truncating open would leave it."""

    COMMANDS = ["simulate", "compile", "verify-qm"]

    @pytest.fixture
    def argv_for(self, tmp_path):
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"settings": grid_settings(np.random.default_rng(5), 1)}))
        commands = {
            # two chunks of events
            "simulate": ["simulate", "--events", str(EVENT_CHUNK + 904), "--seed", "7"],
            "compile": ["compile", "--settings", str(settings), "--kappa", "1", "--factorize"],
            "verify-qm": ["verify-qm", "--grid", "1"],
        }
        return lambda command, out: [*commands[command], "--out", str(out)]

    @staticmethod
    def fresh_bytes(capsys, argv_for, command, tmp_path):
        """What the command writes to a path that does not exist yet."""
        out = tmp_path / "fresh"
        assert run(capsys, *argv_for(command, out))[0] == 0
        return out.read_bytes()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("extra", [4096 * 3, 0, -1000])
    def test_old_file_ends_with_exactly_the_new_bytes(
        self, capsys, tmp_path, argv_for, command, extra
    ):
        expected = self.fresh_bytes(capsys, argv_for, command, tmp_path)
        out = tmp_path / "out"
        out.write_bytes(b"x" * (len(expected) + extra))
        assert run(capsys, *argv_for(command, out))[0] == 0
        assert out.read_bytes() == expected

    @pytest.mark.parametrize("command", COMMANDS)
    def test_file_keeps_its_inode_mode_and_links(self, capsys, tmp_path, argv_for, command):
        expected = self.fresh_bytes(capsys, argv_for, command, tmp_path)
        target, hard, symlink = tmp_path / "target", tmp_path / "hard", tmp_path / "symlink"
        target.write_bytes(b"x" * (2 * len(expected)))
        target.chmod(0o640)
        os.link(target, hard)
        symlink.symlink_to(target)
        inode = target.stat().st_ino
        assert run(capsys, *argv_for(command, symlink))[0] == 0
        assert symlink.is_symlink()
        assert (target.stat().st_ino, stat.S_IMODE(target.stat().st_mode)) == (inode, 0o640)
        assert target.read_bytes() == hard.read_bytes() == expected

    @pytest.mark.parametrize("command", COMMANDS)
    def test_dev_null_and_a_fifo(self, capsys, tmp_path, argv_for, command):
        expected = self.fresh_bytes(capsys, argv_for, command, tmp_path)
        assert run(capsys, *argv_for(command, os.devnull))[0] == 0
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code, _ = run(capsys, *argv_for(command, fifo))
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert code == 0 and received == [expected]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_failure_partway_exits_2_and_leaves_no_old_byte(
        self, capsys, monkeypatch, tmp_path, argv_for, command
    ):
        expected = self.fresh_bytes(capsys, argv_for, command, tmp_path)
        written = []
        full = OSError(errno.ENOSPC, "No space left on device")

        def events_then_full(fp, angles, chunks):
            def first_write_only(text):
                if written:  # the second chunk
                    raise full
                written.append(text)
                fp.write(text)

            write_events_csv(SimpleNamespace(write=first_write_only), angles, chunks)

        def half_then_full(cs, fp):
            buffer = io.StringIO()
            serialize.dump_constraint_set(cs, buffer)
            written.append(buffer.getvalue()[: len(buffer.getvalue()) // 2])
            fp.write(written[-1])
            raise full

        def full_before_writing(**kwargs):
            raise full

        name, failing = {
            "simulate": ("write_events_csv", events_then_full),
            "compile": ("dump_constraint_set", half_then_full),
            "verify-qm": ("run_qm_verification", full_before_writing),
        }[command]
        monkeypatch.setattr(cli, name, failing)
        out = tmp_path / "out"
        out.write_bytes(b"x" * (len(expected) + 4096 * 3))
        assert main(argv_for(command, out)) == 2
        message = "error: cannot write output: [Errno 28] No space left on device\n"
        assert capsys.readouterr().err == message
        data = "".join(written).encode()
        assert out.read_bytes() == data and expected.startswith(data) and len(data) < len(expected)

    def test_flush_failing_partway_still_cuts_the_old_tail(self, capsys, tmp_path, argv_for):
        # verify-qm's small report waits in the buffer until the flush, which a
        # file size limit (ignored SIGXFSZ: writes fail with EFBIG) cuts short
        expected = self.fresh_bytes(capsys, argv_for, "verify-qm", tmp_path)
        limit = len(expected) // 2
        out = tmp_path / "out"
        out.write_bytes(b"x" * (4 * len(expected)))
        script = (
            "import resource, signal, sys\n"
            "from bellswap import cli\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv_for("verify-qm", out)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write output: [Errno 27] File too large\n"
        assert out.read_bytes() == expected[:limit]


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
        bound = COMPILE_TOL_BOUND if command == "compile" else "> 0 and < pi/4"
        assert message.endswith(f"argument --tol: must be {bound}, got {value}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "value", [repr(float(np.nextafter(MAX_COMPILE_TOL, 1))), "1.5e-6", "1e-3", "0.2", "0.78"]
    )
    def test_compile_tol_above_the_certainty_bound(self, capsys, tmp_path, value):
        settings, out = tmp_path / "settings.json", tmp_path / "out"
        settings.write_text('{"settings": [[0, 0.5, 0, 0]]}')
        argv = ["compile", "--settings", str(settings), "--kappa", "1", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--tol={value}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = captured.err.splitlines()[-1]
        assert message.endswith(f"argument --tol: must be {COMPILE_TOL_BOUND}, got {value}")
        assert not out.exists()
        code, _ = run(capsys, *argv, f"--tol={MAX_COMPILE_TOL!r}")
        assert code == 0

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
        "flags,peak",
        [(["--phi1=1e308", "--phi2=-1e308"], "1e+308"), (["--phi4=-1e308", "--degrees"], "-1e+308")],
    )
    @pytest.mark.parametrize("command", ["decompose", "simulate"])
    def test_angle_beyond_the_settings_file_bound(self, capsys, tmp_path, command, flags, peak):
        out = tmp_path / "events.csv"
        extra = ["--out", str(out)] if command == "simulate" else ["--json"]
        assert main([command, *flags, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        bound = f"{serialize._MAX_NUMBER:.2g}"
        assert captured.err.splitlines() == [f"error: angles must be within +-{bound}, got {peak}"]
        assert not out.exists()

    def test_largest_angles_within_the_bound_give_strict_json(self, capsys):
        def reject(token):
            raise ValueError(f"non-finite number {token} in the output")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, "decompose", "--phi1=1.7e299", "--phi2=-1.7e299", "--json")
        assert code == 0
        doc = json.loads(out, parse_constant=reject)
        assert doc["angles"] == [1.7e299, -1.7e299, 0.0, 0.0]

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

    def test_no_state_leaks_between_calls(self, capsys, monkeypatch):
        # main hands a command's flags straight to its subparser: every
        # argv, good or bad, must come out as the whole parser's
        sequence = [
            ["decompose", "--json"],
            ["decompose"],
            ["decompose", "--bogus", "1"],
            ["refute", "--fig2", "--kappa=-1"],
            ["refute"],
            ["verify-qm", "--grid", "1"],
            ["--help"],
            ["refute", "--help"],
            [],
            ["nope"],
            ["-h"],
            ["--", "refute"],
            ["solve"],
            ["refute", "extra"],
            ["refute", "--bogus", "1"],
            ["refute", "--kappa", "2"],
            ["refute", "--alpha", "-0.5"],
            ["refute", "--met", "gf2"],
            ["refute", "--he"],
            ["compile", "-h"],
            ["refute", "--alpha"],
            None,  # sys.argv[1:]
        ]
        monkeypatch.setattr(sys, "argv", ["bellswap", "refute", "--kappa=-1", "--fig2"])

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
            assert codes == [0, 0, 2, 0, 0, 0, 0, 0, 2, 2, 0, 2, 2, 2, 2, 2, 0, 0, 0, 0, 2, 0]


class TestClosedStdout:
    def test_reader_closing_early_exits_2_without_traceback(self, tmp_path):
        # about 0.2 MB of model labels: more than a pipe buffer holds, so the
        # writer is still writing when the reader goes
        settings = np.array(
            [[x, x, y, y] for x in np.linspace(0.1, 3.0, 60) for y in np.linspace(0.2, 2.9, 40)]
        )
        path = tmp_path / "system.json"
        with open(path, "w", encoding="utf-8") as fp:
            serialize.dump_constraint_set(compile_double_bell(settings, -1), fp)
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "bellswap", "solve", "--in", str(path), "--method", "gf2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert "Traceback" not in stderr and "Exception ignored" not in stderr
        assert stderr.splitlines() == ["error: cannot write output: [Errno 32] Broken pipe"]


class TestModuleEntryPoints:
    def test_the_cli_module_runs_as_the_package_does(self):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        runs = [
            subprocess.run(
                [sys.executable, "-m", module, "refute", "--alpha", "0.3"],
                capture_output=True,
                env=env,
                timeout=60,
            )
            for module in ("bellswap.cli", "bellswap")
        ]
        assert [(run.returncode, run.stdout) for run in runs] == [(0, runs[1].stdout)] * 2
        assert json.loads(runs[0].stdout)["command"] == "refute"


@pytest.fixture
def restore_collector():
    """Put the collector back as the test found it, whatever the test does."""
    collecting = gc.isenabled()
    try:
        yield
    finally:
        (gc.enable if collecting else gc.disable)()


@pytest.mark.usefixtures("restore_collector")
class TestCollectorPause:
    def test_command_runs_with_the_collector_paused(self, capsys, monkeypatch):
        gc.enable()
        seen = []
        monkeypatch.setattr(cli, "cmd_refute", lambda args: seen.append(gc.isenabled()) or 0)
        assert main(["refute"]) == 0
        assert seen == [False]

    @pytest.mark.parametrize("collecting", [True, False])
    @pytest.mark.parametrize("ending", ["return", "raise", "closed stdout", "usage error"])
    def test_the_callers_collector_state_comes_back(
        self, capsys, monkeypatch, tmp_path, collecting, ending
    ):
        def command(args):
            if ending == "raise":
                raise RuntimeError("command failed")
            if ending == "closed stdout":
                raise BrokenPipeError(32, "Broken pipe")
            return 0

        monkeypatch.setattr(cli, "cmd_refute", command)
        # the closed-stdout path points the stdout descriptor at devnull: give it one of its own
        with open(tmp_path / "stdout", "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            (gc.enable if collecting else gc.disable)()
            if ending == "raise":
                with pytest.raises(RuntimeError):
                    main(["refute"])
            elif ending == "usage error":
                with pytest.raises(SystemExit) as exc:
                    main(["refute", "--kappa", "5"])
                assert exc.value.code == 2
            else:
                assert main(["refute"]) == (2 if ending == "closed stdout" else 0)
        assert gc.isenabled() is collecting


def verify_qm_commands(tmp_path, grid: int) -> list[list[str]]:
    return [["verify-qm", "--grid", str(grid)]]


def simulate_commands(tmp_path, events: int) -> list[list[str]]:
    return [["simulate", "--events", str(events), "--out", str(tmp_path / "events.csv")]]


def grid_commands(tmp_path, bases: int) -> list[list[str]]:
    """compile (figure 1, factorized) and gf2-solve the refute_grid-shaped grid
    with ``bases`` base angles per side."""
    settings, system = tmp_path / f"settings{bases}.json", tmp_path / f"system{bases}.json"
    grid = grid_settings(np.random.default_rng(301), bases)
    settings.write_text(json.dumps({"settings": grid}))
    return [
        ["compile", "--settings", str(settings), "--kappa", "1", "--factorize"]
        + ["--out", str(system)],
        ["solve", "--in", str(system), "--method", "gf2"],
    ]


@pytest.mark.usefixtures("restore_collector")
class TestCollectorTraffic:
    """``main`` pauses the collector, so cyclic garbage a command makes stays
    until the command ends: it must not grow with the problem size."""

    @staticmethod
    def garbage_left(capsys, commands: list[list[str]]) -> int:
        gc.collect()
        for argv in commands:
            assert main(argv) == 0, argv
        found = gc.collect()
        capsys.readouterr()
        return found

    @pytest.mark.parametrize(
        "commands,small,large",
        [(verify_qm_commands, 1, 3), (simulate_commands, 10, 20000), (grid_commands, 1, 3)],
        ids=["verify-qm", "simulate", "compile-solve"],
    )
    def test_garbage_left_does_not_grow_with_size(self, capsys, tmp_path, commands, small, large):
        gc.disable()
        self.garbage_left(capsys, commands(tmp_path, small))  # one-time set-up garbage
        counts = [self.garbage_left(capsys, commands(tmp_path, n)) for n in (small, large)]
        assert counts[0] == counts[1]
