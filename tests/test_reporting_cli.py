import argparse
import dataclasses
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qubounds import (
    BoundReport,
    QuboundsError,
    SampleConfig,
    Tolerance,
    ZeroDeviation,
    construct_case1,
    construct_case2,
    construct_w_mp6,
    mp3,
    mp6,
    mp_chain,
    random_density,
    random_hermitian,
    random_pure_state,
    robertson,
    robertson_saturation_mixed,
    robertson_saturation_pure,
    run_verification_suite,
    schrodinger,
    schrodinger_saturation,
    trial_rng,
)
import qubounds
from qubounds import cli, goldens, linalg, relations, reporting, sampling, saturation, states
from qubounds.cli import build_parser, main
from qubounds.reporting import (
    canonical_json,
    dumps_report,
    matrix_from_json_dict,
    report_body_dict,
    summary_csv,
)
from qubounds.sampling import _haar_columns
from qubounds.states import PureState
import grid_diff
from helpers import SIGMA_X, SIGMA_Y, hermitian_array, matrix_to_json_dict


def _write_pair_file(path, a, b):
    payload = {"a": matrix_to_json_dict(a), "b": matrix_to_json_dict(b)}
    path.write_text(json.dumps(payload))
    return str(path)


def test_matrix_json_round_trip():
    m = np.array([[1.0, 2.0 - 3.0j], [2.0 + 3.0j, -1.0]])
    back = matrix_from_json_dict(matrix_to_json_dict(m))
    np.testing.assert_array_equal(back, m)
    with pytest.raises(ValueError):
        matrix_from_json_dict({"rows": 2, "cols": 2, "re": [[0.0]]})


def test_bound_report_round_trip_exact():
    # A public report's fields survive the canonical JSON form bit for bit.
    report = robertson(SIGMA_X, SIGMA_Y, PureState(np.array([1.0, 0.0])))
    record = dataclasses.asdict(report)
    back = json.loads(canonical_json(record))
    assert back == record
    assert (back["lhs"], back["rhs"], back["slack"], back["saturated"], back["inputs_digest"]) == (
        report.lhs, report.rhs, report.slack, report.saturated, report.inputs_digest)
    assert back["tol_used"] == {"eps": report.tol_used.eps}


def test_bound_report_tolerance_is_the_dataclass_dict():
    # A public report keeps the caller's tolerance; a sweep writes it once, in its manifest.
    for tol in (Tolerance(), Tolerance(0.0), Tolerance(3e-7 + 0.25)):
        report = robertson(SIGMA_X, SIGMA_Y, PureState(np.array([1.0, 0.0])), tol)
        assert report.tol_used == tol and dataclasses.asdict(report.tol_used) == {"eps": tol.eps}
        suite = run_verification_suite(SampleConfig(2, 1, 7, 1), tol)
        assert reporting.report_to_dict(suite)["manifest"]["tolerance"] == dataclasses.asdict(tol)


def test_suite_report_round_trip_and_determinism():
    config = SampleConfig(dimension=3, rank=2, seed=11, count=4)
    tol = Tolerance()
    report = run_verification_suite(config, tol)
    assert report.summary["failure_count"] == 0
    back = json.loads(dumps_report(report))
    assert back["trials"] == list(report.trials)
    assert back["summary"] == report.summary
    assert back["manifest"] == dataclasses.asdict(report.manifest)
    again = run_verification_suite(config, tol)
    assert json.dumps(report_body_dict(report), sort_keys=True) == json.dumps(
        report_body_dict(again), sort_keys=True
    )
    csv_text = summary_csv(report)
    assert csv_text.startswith("bound,min_slack,saturated_count,trials")
    assert "robertson_pure" in csv_text


def test_cli_verify_writes_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--n", "2", "--trials", "100", "--seed", "7", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["failure_count"] == 0
    assert payload["manifest"]["command"] == "verify"
    assert len(payload["trials"]) == 100
    # The product bound holds on every sampled trial, pure and mixed.
    assert payload["summary"]["min_slack"]["robertson_pure"] >= -1e-9
    assert payload["summary"]["min_slack"]["robertson_mixed"] >= -1e-9


def test_cli_verify_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    code = main(
        ["verify", "--n", "3", "--trials", "3", "--seed", "1", "--out", str(out), "--format", "csv"]
    )
    assert code == 0
    assert out.read_text().startswith("bound,")


def _lean(columns):
    """A Haar pair with phi leaning 1e-6 towards psi, in place: every budget rejects it."""
    columns[:, 1] += 1e-6 * columns[:, 0]
    columns[:, 1] /= np.linalg.norm(columns[:, 1])
    return columns


def _stretch(columns):
    """A Haar pair with phi scaled by 1 + 5e-11, in place: still orthogonal, and a unit state within
    ``INPUT_TOL``, but its Gram matrix misses the identity by about 1e-10, which only a zero budget rejects."""
    columns[:, 1] *= 1.0 + 5e-11
    return columns


_HAAR_STACK = sampling._haar_stack


def _perturbed_stack(perturb):
    """``sampling._haar_stack`` with each pair perturbed once, in place.  Patched over it, it perturbs the sweep's
    stacked pairs and the public sampler's pair (``_haar_columns``, the stack's one-draw call) alike."""
    return lambda z: [perturb(columns) for columns in _HAAR_STACK(z)]


def test_cli_verify_surfaces_failures(tmp_path, monkeypatch):
    monkeypatch.setattr(sampling, "_haar_stack", _perturbed_stack(_lean))
    out = tmp_path / "strict.json"
    code = main(["verify", "--n", "2", "--trials", "20", "--seed", "7", "--out", str(out)])
    assert code == 2
    payload = json.loads(out.read_text())
    assert payload["summary"]["failure_count"] > 0


def test_every_failure_names_an_entry_of_its_trial_record(monkeypatch):
    # A pair that is not orthogonal fails every Maccone-Pati call: each failure
    # still leaves an entry.
    monkeypatch.setattr(sampling, "_haar_stack", _perturbed_stack(_lean))
    tol = Tolerance()
    report = run_verification_suite(SampleConfig(dimension=2, rank=2, seed=7, count=20), tol)
    failures = report.summary["failures"]
    chain_trials = [f["trial"] for f in failures if f["where"] == "mp_chain"]
    rejected = []
    for k in range(20):
        try:
            _public_evaluations(2, k, 2, tol)[1]["mp_chain"]()
        except QuboundsError:
            rejected.append(k)
    assert chain_trials == rejected
    assert rejected == list(range(20))
    for k in chain_trials:
        record = report.trials[k]
        assert set(record["mp_chain"]) == {"error"}
        assert "chain_step1" not in record
    keys = {"mp6": "mp6_reformulated"}
    for failure in failures:
        record = report.trials[failure["trial"]]
        assert record["trial"] == failure["trial"]
        assert keys.get(failure["where"], failure["where"]) in record
    assert report.summary["failure_count"] == len(failures)


def test_cli_verify_reports_are_rerun_identical(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["verify", "--n", "2", "--trials", "4", "--seed", "3", "--out"]
    assert main(argv + [str(out1)]) == 0
    assert main(argv + [str(out2)]) == 0
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    for d in (d1, d2):
        d["manifest"]["started"] = d["manifest"]["finished"] = ""
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_cli_writes_one_canonical_json_form(tmp_path):
    # verify's file is dumps_report of the same config, timestamps aside: compact,
    # with no newline before its last character; saturate writes the same form.
    out = tmp_path / "report.json"
    assert main(["verify", "--n", "3", "--rank", "2", "--trials", "3", "--seed", "5",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert "\n" not in text[:-1]
    report = run_verification_suite(SampleConfig(3, 2, 5, 3), Tolerance())
    stamps = {key: json.loads(text)["manifest"][key] for key in ("started", "finished")}
    assert text == dumps_report(dataclasses.replace(
        report, manifest=dataclasses.replace(report.manifest, **stamps)))
    pair_file = _write_pair_file(tmp_path / "pair.json", SIGMA_X, SIGMA_Y)
    sat = tmp_path / "sat.json"
    assert main(["saturate", pair_file, "--target", "mp3", "--out", str(sat)]) == 0
    text = sat.read_text()
    assert "\n" not in text[:-1]
    assert text == canonical_json(json.loads(text))


def test_cli_reproduce_passes(tmp_path):
    out = tmp_path / "goldens.json"
    code = main(["reproduce", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    ids = {t["golden_id"] for t in payload["trials"]}
    assert {"qubit-north-pole", "qubit-south-pole", "block-mixed-4x4", "qubit-chain-grid"} <= ids
    assert all(t["passed"] for t in payload["trials"])


def test_cli_reproduce_failing_golden_writes_strict_json(monkeypatch, capsys):
    # A golden that cannot compute a value records null, never Infinity.
    monkeypatch.setattr(goldens, "robertson_saturation_pure", lambda *args, **kwargs: None)
    assert main(["reproduce"]) == 2

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    failed = {t["golden_id"]: t for t in payload["trials"] if not t["passed"]}
    assert set(failed) == {"qubit-north-pole", "qubit-south-pole"}
    assert all(t["values"]["theta_error"] is None for t in failed.values())
    report = reporting.run_reproduction()
    assert json.loads(dumps_report(report))["trials"] == payload["trials"]
    with pytest.raises(ValueError):
        dumps_report(dataclasses.replace(report, summary={"min_slack": {"x": math.nan}}))


def test_cli_saturate_mp3(tmp_path):
    pair_file = _write_pair_file(tmp_path / "pair.json", SIGMA_X, SIGMA_Y)
    out = tmp_path / "sat.json"
    code = main(["saturate", pair_file, "--target", "mp3", "--out", str(out)])
    assert code == 0
    record = json.loads(out.read_text())
    assert record["mu"] == [-0.0, -1.0] or record["mu"] == [0.0, -1.0]
    assert abs(record["achieved_slack"]) <= 1e-12


def test_cli_saturate_rejects_format(tmp_path):
    # saturate writes its one JSON record, so a --format it would ignore is a usage error: exit 1, no file.
    pair_file = _write_pair_file(tmp_path / "pair.json", SIGMA_X, SIGMA_Y)
    out = tmp_path / "sat.csv"
    with pytest.raises(SystemExit) as excinfo:
        main(["saturate", pair_file, "--target", "mp3", "--format", "csv", "--out", str(out)])
    assert excinfo.value.code == 1
    assert not out.exists()


def test_cli_reproduce_rejects_tol_and_format(tmp_path):
    # The goldens run at DEFAULT_TOL and reproduce writes one JSON report, so either flag is a
    # usage error: exit 1, no file.  As a module, the run also takes cli.py's __main__ line.
    out = tmp_path / "goldens.json"
    with pytest.raises(SystemExit) as excinfo:
        main(["reproduce", "--format", "csv", "--out", str(out)])
    assert excinfo.value.code == 1
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "qubounds.cli", "reproduce", "--tol", "1e-6", "--out", str(out)],
                            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60)
    assert result.returncode == 1 and "unrecognized arguments: --tol" in result.stderr
    assert not out.exists()


def test_cli_saturate_mp6_four_by_four(tmp_path):
    rng = np.random.default_rng(19)
    g1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    g2 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a, b = (g1 + g1.conj().T) / 2, (g2 + g2.conj().T) / 2
    pair_file = _write_pair_file(tmp_path / "pair4.json", a, b)
    out = tmp_path / "sat4.json"
    code = main(["saturate", pair_file, "--target", "mp6", "--out", str(out)])
    assert code == 0
    assert abs(json.loads(out.read_text())["achieved_slack"]) <= 1e-8


def test_cli_saturate_rejects_non_hermitian(tmp_path, capsys):
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    pair_file = _write_pair_file(tmp_path / "bad.json", bad, SIGMA_Y)
    code = main(["saturate", pair_file, "--target", "mp3"])
    assert code == 1
    assert "NonHermitianInput" in capsys.readouterr().err
    # A NaN entry (Python's JSON reader takes the NaN token) is bad input data, named by its type.
    nan_file = tmp_path / "nan.json"
    nan_a = {"rows": 2, "cols": 2, "re": [[math.nan, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    nan_file.write_text(json.dumps({"a": nan_a, "b": matrix_to_json_dict(SIGMA_Y)}))
    assert main(["saturate", str(nan_file), "--target", "mp3"]) == 1
    assert capsys.readouterr().err == "error: InvalidInput: A contains non-finite entries\n"


def test_cli_saturate_rejects_a_malformed_pair_file(tmp_path, capsys):
    # No "b" key, a matrix whose payload does not match its declared shape, a row count of 1e400,
    # which JSON reads as inf, and counts that are not JSON integers (2.5, "2", true; the payloads are
    # 2 x 2, so int() of each would pass): each exits 1 with one error line.
    no_b = tmp_path / "no_b.json"
    no_b.write_text(json.dumps({"a": matrix_to_json_dict(SIGMA_X)}))
    misshaped = tmp_path / "misshaped.json"
    payload = {"a": matrix_to_json_dict(SIGMA_X), "b": dict(matrix_to_json_dict(SIGMA_Y), rows=3)}
    misshaped.write_text(json.dumps(payload))
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(dict(payload, b=matrix_to_json_dict(SIGMA_Y))).replace('"rows": 2', '"rows": 1e400', 1))
    counts = []
    for count in (2.5, "2", True):
        counts.append(tmp_path / f"count_{len(counts)}.json")
        counts[-1].write_text(json.dumps(dict(payload, b=dict(matrix_to_json_dict(SIGMA_Y), rows=count))))
        with pytest.raises(ValueError, match="malformed matrix object"):
            matrix_from_json_dict(dict(matrix_to_json_dict(SIGMA_Y), cols=count))
    for path in (no_b, misshaped, huge, *counts):
        assert main(["saturate", str(path), "--target", "mp3"]) == 1
        assert capsys.readouterr().err.count("\n") == 1
    assert "1e400" in huge.read_text()


def test_grid_diff_lists_each_moved_leaf_and_fails_on_a_moved_body(monkeypatch, capsys):
    # Two crafted bodies of one artifact version: one moved float, one flipped flag, and one entry the change lacks.
    manifest = {"artifact_version": "0.13.0"}
    old = {"manifest": manifest, "trials": [{"robertson_pure": {"slack": 0.5, "saturated": True}, "mp3": {"lhs": 1.0}}]}
    new = {"manifest": manifest, "trials": [{"robertson_pure": {"slack": 0.5 + 2.0**-53, "saturated": False}}]}
    assert grid_diff.leaf_diff(old, new) == [
        "trials[0].mp3: missing in change",
        "trials[0].robertson_pure.saturated: True -> False",
        "trials[0].robertson_pure.slack: 0.5 -> 0.5000000000000001 (relative change 2.22e-16)",
    ]
    assert grid_diff.leaf_diff(old, json.loads(json.dumps(old))) == []
    bumped = dict(new, manifest={"artifact_version": "0.14.0"})
    trees = {"parent": {"run": [json.dumps(old), "csv\n"]}, "change": {"run": [json.dumps(new), "csv\n"]},
             "bumped": {"run": [json.dumps(bumped), "csv\n"]}}
    monkeypatch.setattr(grid_diff, "tree_bodies", trees.get)
    assert grid_diff.main(["parent", "parent"]) == 0
    assert capsys.readouterr().out.endswith("0 of 1 runs differ\n")
    assert grid_diff.main(["parent", "change"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("DIFFERS") and "    trials[0].mp3: missing in change\n" in out
    # The flipped flags are counted per run and per bound; the count changes no exit code.
    assert out.endswith("saturated flags flipped: 1\n    run: robertson_pure 1\n    by bound: robertson_pure 1\n"
                        "1 of 1 runs differ\nreport bytes moved, but artifact_version is 0.13.0 in both trees\n")
    # Under a new artifact version the same moves pass, and the version's move is printed.
    assert grid_diff.main(["parent", "bumped"]) == 0
    out = capsys.readouterr().out
    assert "    manifest.artifact_version: '0.13.0' -> '0.14.0'\n" in out
    assert out.endswith("1 of 1 runs differ\nreport bytes moved with artifact_version 0.13.0 -> 0.14.0\n")


def test_grid_diff_compares_saturate_runs_under_the_report_bodies_version(monkeypatch, capsys):
    # A saturate run carries no artifact version: a moved stdout, stderr or exit code fails under the report bodies'
    # one version, and passes where that version moved.
    body, bumped = (json.dumps({"manifest": {"artifact_version": v}, "trials": []}) for v in ("0.13.0", "0.14.0"))
    run = ['{"achieved_slack":0.0}\n', "", 0]
    trees = {"parent": {"run": [body, "csv\n"], "saturate x": run},
             "change": {"run": [body, "csv\n"], "saturate x": ['{"achieved_slack":1e-16}\n', "", 0]},
             "bumped": {"run": [bumped, "csv\n"], "saturate x": ["", "error: E: m\n", 1]}}
    monkeypatch.setattr(grid_diff, "tree_bodies", lambda tree, folder: trees[tree])
    assert grid_diff.main(["parent", "parent"]) == 0
    out = capsys.readouterr().out
    assert "0 of 1 saturate runs differ\n" in out and out.endswith("0 of 1 runs differ\n")
    assert grid_diff.main(["parent", "change"]) == 1
    out = capsys.readouterr().out
    assert "DIFFERS  stdout" in out and "    achieved_slack: 0.0 -> 1e-16 (relative change inf)\n" in out
    assert out.endswith("1 of 1 saturate runs differ\nsaturated flags flipped: 0\n0 of 1 runs differ\n"
                        "report bytes moved, but artifact_version is 0.13.0 in both trees\n")
    assert grid_diff.main(["parent", "bumped"]) == 0
    out = capsys.readouterr().out
    assert "    stderr: '' -> 'error: E: m\\n'\n    exit code: 0 -> 1\n" in out
    assert out.endswith("report bytes moved with artifact_version 0.13.0 -> 0.14.0\n")


def test_grid_diff_runs_saturate_for_both_targets_on_each_pair_file(tmp_path):
    # Six pair files, two targets each: n = 1 takes no construction, and mp6 rejects the pair whose A has e1 as an
    # eigenvector (dev(A) = 0 in e1); every other run writes its record and exits 0.
    grid_diff.write_pair_files(tmp_path)
    runs = grid_diff.saturate_runs(tmp_path)
    assert len(runs) == 12
    failed = {name: err for name, (out, err, code) in runs.items() if code != 0 or not out}
    assert {name: err.split(":")[1] for name, err in failed.items()} == {
        "saturate --target mp3 seeded-n1": " DimensionMismatch", "saturate --target mp6 seeded-n1": " DimensionMismatch",
        "saturate --target mp6 e1-eigenvector": " ZeroDeviation"}


def test_sweep_skips_what_a_zero_deviation_stops():
    # Under Tolerance(10) every qubit deviation is zero by the rule, so mp6 and
    # construct_w_mp6 raise ZeroDeviation, and the sweep records a skip, not a failure.
    report = run_verification_suite(SampleConfig(2, 2, 7, 3), Tolerance(10.0))
    assert report.summary["failure_count"] == 0
    for record in report.trials:
        assert record["mp6_reformulated"] == record["construct_w_mp6"] == {"skipped": "zero deviation"}


def test_a_construction_gap_is_a_failure(tmp_path, monkeypatch):
    # A constructed pair that leaves more than CONSTRUCTION_TOL of its bound open
    # is a BoundViolation of the sweep: verify exits 2.
    def leaky(targets, *args):
        built = constructions(targets, *args)
        return [[dataclasses.replace(pair, achieved_slack=10 * reporting.CONSTRUCTION_TOL)
                 if target == "case1" else pair for target, pair in zip(targets, pairs)] for pairs in built]

    constructions = reporting._constructions
    monkeypatch.setattr(reporting, "_constructions", leaky)
    out = tmp_path / "gap.json"
    assert main(["verify", "--n", "2", "--trials", "2", "--out", str(out)]) == 2
    failures = json.loads(out.read_text())["summary"]["failures"]
    assert [(f["trial"], f["where"], f["error"]) for f in failures] == [
        (0, "construct_case1", "BoundViolation"), (1, "construct_case1", "BoundViolation")]


def test_a_construction_gap_at_the_gate_is_no_failure(tmp_path, monkeypatch, capsys):
    # One gate (reporting._pair_entry) serves the sweep and saturate: a gap of exactly CONSTRUCTION_TOL, of either
    # sign, passes, and the next float past it is a BoundViolation of the sweep and saturate's exit code 2.
    def gapped(targets, *args):
        built = constructions(targets, *args)
        return [[dataclasses.replace(pair, achieved_slack=gaps[target]) if target in gaps else pair
                 for target, pair in zip(targets, pairs)] for pairs in built]

    constructions = reporting._constructions
    monkeypatch.setattr(reporting, "_constructions", gapped)
    for at_gate in (reporting.CONSTRUCTION_TOL, -reporting.CONSTRUCTION_TOL):
        gaps = {"case1": at_gate, "w_mp6": math.nextafter(reporting.CONSTRUCTION_TOL, 1.0)}
        out = tmp_path / "gate.json"
        assert main(["verify", "--n", "2", "--trials", "2", "--out", str(out)]) == 2
        failures = json.loads(out.read_text())["summary"]["failures"]
        assert [(f["trial"], f["where"]) for f in failures] == [(0, "construct_w_mp6"), (1, "construct_w_mp6")]
    construct, gate = cli._construct, reporting.CONSTRUCTION_TOL
    pair_file = _write_pair_file(tmp_path / "pair.json", SIGMA_X, SIGMA_Y)
    for gap, code in ((gate, 0), (-gate, 0), (math.nextafter(gate, 1.0), 2), (-math.nextafter(gate, 1.0), 2)):
        monkeypatch.setattr(cli, "_construct", lambda *args: dataclasses.replace(construct(*args), achieved_slack=gap))
        for target in ("mp3", "mp6"):
            assert main(["saturate", pair_file, "--target", target]) == code
            assert json.loads(capsys.readouterr().out)["achieved_slack"] == gap


def test_saturate_builds_the_construction_that_the_sweeps_table_allows_at_n(tmp_path, capsys):
    # For mp3, case 1 at n = 2 and case 2 at n = 3; for mp6, w_mp6 at both.  At n = 1 no construction is allowed,
    # and the error is the dimension rule of the target's last one: exit code 1, one error line.
    rng = np.random.default_rng(41)
    for n, target, construct in ((2, "mp3", construct_case1), (3, "mp3", construct_case2), (2, "mp6", construct_w_mp6),
                                 (3, "mp6", construct_w_mp6)):
        a, b = hermitian_array(rng, n), hermitian_array(rng, n)
        assert main(["saturate", _write_pair_file(tmp_path / "pair.json", a, b), "--target", target]) == 0
        record, pair = json.loads(capsys.readouterr().out), construct(a, b)
        assert record["phi"] == {"re": pair.phi.amplitudes.real.tolist(), "im": pair.phi.amplitudes.imag.tolist()}
        assert (record["target"], record["achieved_slack"]) == (target, pair.achieved_slack)
    pair_file = _write_pair_file(tmp_path / "n1.json", [[2.0]], [[3.0]])
    for target, rule in (("mp3", "dimension > 2, got 1"), ("mp6", "dimension >= 2")):
        assert main(["saturate", pair_file, "--target", target]) == 1
        assert capsys.readouterr().err == f"error: DimensionMismatch: construction requires {rule}\n"


def test_cli_saturate_on_an_overflowing_matrix_prints_one_error_line(tmp_path, capsys):
    # Entries of 1e308 give A a non-finite Frobenius norm: exit code 1 and one error line, with no
    # overflow warning before it (here a warning is an error, and would end in a traceback).
    path = _write_pair_file(tmp_path / "overflow.json", np.full((2, 2), 1e308), SIGMA_Y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["saturate", path, "--target", "mp3"]) == 1
    assert capsys.readouterr().err == "error: InvalidInput: A has a non-finite Frobenius norm\n"


def test_cli_saturate_missing_file():
    assert main(["saturate", "/nonexistent/pair.json", "--target", "mp3"]) == 1


def test_cli_bad_flags_exit_one():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--n"])
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["unknown-command"])
    assert excinfo.value.code == 1


def test_cli_bad_config_exit_one(tmp_path, capsys):
    assert main(["verify", "--n", "0"]) == 1
    assert main(["verify", "--n", "2", "--rank", "5"]) == 1
    # A negative seed is rejected where it enters, in SampleConfig, before any draw or write.
    capsys.readouterr()
    out = tmp_path / "bad.json"
    assert main(["verify", "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0\n"
    assert not out.exists()


def test_cli_non_finite_tolerance_exits_one(tmp_path):
    # A NaN budget would write non-standard JSON; inf would saturate every bound; -1 saturates none.
    for value in ("nan", "inf", "-1"):
        out = tmp_path / f"{value}.json"
        argv = ["verify", "--n", "2", "--trials", "2", "--tol", value, "--out", str(out)]
        assert main(argv) == 1
        assert not out.exists()


class _DrawSizes:
    """A trial's generator, recording how many normals each of its draws takes."""

    def __init__(self, rng, sizes):
        self._rng, self._sizes = rng, sizes

    def standard_normal(self, size=None, out=None):
        self._sizes.append(int(np.prod(size)) if out is None else out.size)
        return self._rng.standard_normal(size, out=out)


def _trial_calls(monkeypatch, config, tol=Tolerance(), failures=0):
    """Run ``config``'s sweep at ``tol``, with ``failures`` failures, counting the
    calls each library entry makes, the shapes of its ``eigh``, ``eigvalsh`` and ``qr`` operands,
    the size of each of its normal draws, the kind of each input digest it made (one entry per digest,
    however many one hashing call made), the states its factor body built, and every rho those states formed."""
    targets = {
        "require_hermitian": linalg.require_hermitian,
        "_moments": states._moments,
        "eigh": np.linalg.eigh,
        "eigvalsh": np.linalg.eigvalsh,
        "qr": np.linalg.qr,
        "svd": np.linalg.svd,
        "_require_isometry": linalg._require_isometry,
        "_require_orthonormal": linalg._require_orthonormal,
        "_grams": linalg._grams,
        "_mp_pair": relations._mp_pair,
        "_digest": relations._digest,
        "_robertson_decision": relations._robertson_decision,
        "_schrodinger_decision": relations._schrodinger_decision,
    }
    counts = dict.fromkeys([*targets, "BoundReport"], 0)
    shapes = {"eigh": [], "eigvalsh": [], "qr": [], "draws": [], "digests": []}
    digests = states._digests
    monkeypatch.setattr(states, "_digests",
                        lambda kind, arrays: shapes["digests"].extend([kind] * len(arrays)) or digests(kind, arrays))
    init = relations.BoundReport.__init__
    monkeypatch.setattr(relations.BoundReport, "__init__",
                        lambda self, *args, **kwargs: counts.update(BoundReport=counts["BoundReport"] + 1)
                        or init(self, *args, **kwargs))

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name in shapes:
                shapes[name].append(np.shape(args[0]))
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "qubounds"]
    for name, fn in targets.items():
        wrapper = counting(name, fn)
        for module in modules + [np.linalg]:
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, attr, wrapper)
    monkeypatch.setattr(sampling, "trial_rng", lambda seed, k: _DrawSizes(trial_rng(seed, k), shapes["draws"]))
    built = []
    from_factors = states.DensityMatrix._from_factors.__func__
    monkeypatch.setattr(states.DensityMatrix, "_from_factors",
                        classmethod(lambda cls, g: built.extend(from_factors(cls, g)) or built[-len(g):]))
    report = run_verification_suite(config, tol)
    assert report.summary["failure_count"] == failures
    shapes["built"] = len(built)
    shapes["rho"] = [vars(state)["matrix"].shape for state in built if "matrix" in vars(state)]
    return counts, shapes


def test_verify_trial_validates_once_and_reduces_once(monkeypatch):
    # A, B and rho are validated where they enter, rho's Gram eigenvalues are taken once, with no eigenvector,
    # only the inputs of a recorded report are hashed, each once, and the sweep
    # reduces each of its four (A, B, state) triples once, in two calls of the moments body.
    counts, shapes = _trial_calls(monkeypatch, SampleConfig(4, 4, 7, 1))
    # A and B are Hermitian by construction, and the constructions reduce
    # (A, B, e1) from the validated pair.
    assert counts["require_hermitian"] == 0
    assert (counts["eigh"], counts["eigvalsh"]) == (0, 1)
    # One call for the n x 1 states (psi, the Maccone-Pati psi and e1, once for both
    # constructions) and one for rho's factor.
    assert counts["_moments"] == 2
    # One Haar draw, the Maccone-Pati pair, factoring only the columns it reads:
    # psi needs no QR, and no evaluation completes a frame.
    assert counts["qr"] == 1
    assert shapes["qr"] == [(1, 4, 2)]
    # The Haar pair only, and in the chunk's one stacked Gram product: a constructed pair
    # [e1 | (0, tail)] is orthonormal by construction, and no column basis is checked alone.
    assert (counts["_grams"], counts["_require_isometry"]) == (1, 0)
    # A, B, psi, rho and the Haar pair, each hashed once for the record's inputs block; e1, the
    # constructed phis and the certificates hash nothing.  The bound entries are decisions: no
    # report digest and no BoundReport.
    assert sorted(shapes["digests"]) == ["density-factor", "observable", "observable", "pure", "pure", "pure"]
    assert (counts["_digest"], counts["BoundReport"]) == (0, 0)
    # The reports decide saturation; an SVD only builds a saturated bound's witness.
    assert counts["svd"] == 0


def test_verify_stacks_a_chunks_eigh_and_qr(monkeypatch):
    # Four trials form one chunk: their Gram matrices share one eigvalsh (and no eigh runs), their
    # Haar blocks one QR and their triples the two moments calls of one trial,
    # while each trial's inputs are still hashed, each once, and no report digest runs.
    counts, shapes = _trial_calls(monkeypatch, SampleConfig(4, 4, 7, 4))
    assert (counts["eigh"], counts["eigvalsh"], counts["qr"]) == (0, 1, 1)
    assert (shapes["eigvalsh"], shapes["qr"]) == ([(4, 4, 4)], [(4, 4, 2)])
    assert (counts["_moments"], counts["_digest"], counts["BoundReport"]) == (2, 0, 0)
    assert sorted(shapes["digests"]) == 4 * ["density-factor"] + 8 * ["observable"] + 12 * ["pure"]
    assert (shapes["built"], shapes["rho"]) == (4, [])


def test_verify_stacks_a_chunks_maccone_pati_stage(monkeypatch):
    # Four trials form one chunk: their psi and Haar pairs are built in one state pass and
    # their pairs checked from one Gram product; both constructions of every trial build their
    # phis in one more pass.  Every pair reads c and d through the one reader: 4 drawn pairs and
    # 4 x 2 constructed ones.  e1, built once per dimension, is the only state built alone.
    saturation._e1.cache_clear()
    passes, singles = [], []
    stack, post_init = states.PureState._stack.__func__, states.PureState.__post_init__
    monkeypatch.setattr(states.PureState, "_stack", classmethod(lambda cls, a: passes.append(len(a)) or stack(cls, a)))
    monkeypatch.setattr(states.PureState, "__post_init__", lambda self: singles.append(1) or post_init(self))
    counts, _ = _trial_calls(monkeypatch, SampleConfig(4, 4, 7, 4))
    assert (counts["_grams"], counts["_require_isometry"], counts["_mp_pair"]) == (1, 0, 12)
    assert (passes, singles) == ([12, 8], [1])


def test_a_trials_pair_checks_run_once_when_they_fail(monkeypatch):
    # A trial's pair checks run once, and mp3, mp6 and mp_chain each file the error
    # its reduction kept: 5 Gram tests for 5 trials, and 15 failures.
    monkeypatch.setattr(sampling, "_haar_stack", _perturbed_stack(_stretch))
    counts, _ = _trial_calls(monkeypatch, SampleConfig(3, 2, 7, 5), Tolerance(0.0), failures=15)
    assert (counts["_grams"], counts["_require_orthonormal"]) == (1, 5)


def test_a_chunks_certificates_read_their_bounds_decisions(monkeypatch):
    # Each of a chunk's 4 trials takes its Robertson and Schrodinger decisions once, pure and mixed: 16 in all.
    # Its three certificates read those decisions and take none again (they took 12 more).
    counts, _ = _trial_calls(monkeypatch, SampleConfig(4, 4, 7, 4))
    assert (counts["_robertson_decision"], counts["_schrodinger_decision"]) == (8, 8)


def test_a_certificate_is_present_exactly_where_its_bound_is_saturated():
    # A qubit rank-1 rho is pure, so every trial saturates Schrodinger, and on these draws none saturates Robertson,
    # whose equality also needs the centred anticommutator term to vanish: each certificate must read its own
    # bound's decision, not the other one.
    pairs = (("robertson_pure_certificate", "robertson_pure"), ("robertson_mixed_certificate", "robertson_mixed"),
             ("schrodinger_certificate", "schrodinger_mixed"))
    for n, rank in ((2, 1), (3, 1), (4, 2)):
        trials = run_verification_suite(SampleConfig(n, rank, 7, 12), Tolerance()).trials
        for record in trials:
            for certificate, bound in pairs:
                assert (record[certificate] is not None) == record[bound]["saturated"], (n, rank, record["trial"])
        if n == 2:
            assert all(r["schrodinger_mixed"]["saturated"] and not r["robertson_mixed"]["saturated"] for r in trials)


def test_a_bounds_error_is_its_certificates_outcome(monkeypatch):
    # A Robertson decision that raises is filed once as the bound's error and once as its certificate's, each a
    # failure with the decision's message, in the order the record files them; Schrodinger's certify as before.
    def violated(m, tol):
        raise qubounds.BoundViolation(f"planted at {m.state.dimension}")

    monkeypatch.setattr(reporting, "_robertson_decision", violated)
    report = run_verification_suite(SampleConfig(3, 2, 7, 2), Tolerance())
    for record in report.trials:
        for where in ("robertson_pure", "robertson_pure_certificate", "robertson_mixed", "robertson_mixed_certificate"):
            assert record[where] == {"error": "BoundViolation"}
        assert (record["schrodinger_certificate"] is not None) == record["schrodinger_mixed"]["saturated"]
    assert [(f["trial"], f["where"], f["message"]) for f in report.summary["failures"]] == [
        (k, where, "planted at 3") for k in range(2)
        for where in ("robertson_pure", "robertson_mixed", "robertson_pure_certificate", "robertson_mixed_certificate")]


def test_verify_trial_draws_and_factors_only_what_it_reads(monkeypatch):
    # rho comes from its n x rank factor, so its only eigenvalues are of the
    # rank x rank Gram matrix, with no eigenvector; psi and the pair are n x 1 and n x 2 draws.
    counts, shapes = _trial_calls(monkeypatch, SampleConfig(16, 2, 7, 1))
    assert (shapes["eigh"], shapes["eigvalsh"]) == ([], [(1, 2, 2)])
    # A and B are n^2 real draws, psi and rho's factor complex n x 1 and n x 2,
    # then the pair's n x 2; and the one state built forms no n x n rho.
    assert shapes["draws"] == [16 * 16 * 2 + 2 * 16 + 2 * 16 * 2, 2 * 16 * 2]
    assert (shapes["built"], shapes["rho"]) == (1, [])
    assert shapes["qr"] == [(1, 16, 2)]
    assert (len(shapes["digests"]), counts["_digest"]) == (6, 0)
    assert counts["svd"] == 0


class _ConstantDraws(np.random.Generator):
    """A trial's generator whose every normal draw is 1: its factor, and each redraw, has rank 1."""

    def __init__(self):
        super().__init__(np.random.PCG64(0))

    def standard_normal(self, size=None, out=None):
        if out is None:
            return np.ones(size)
        out[...] = 1.0
        return out


def test_a_sweep_raises_where_a_trials_redraw_falls_short_of_its_rank(monkeypatch):
    # Trial 2's factor falls short of rank 2, and so does its one redraw: the chunk raises.
    monkeypatch.setattr(sampling, "trial_rng", lambda seed, k: _ConstantDraws() if k == 2 else trial_rng(seed, k))
    with pytest.raises(qubounds.RankUnachieved, match="numerical rank 1 != requested 2"):
        run_verification_suite(SampleConfig(3, 2, 7, 4), Tolerance())


def test_a_trials_digests_are_pinned():
    # Seed 7, n = 4: A, B and rho hash bytes made by elementwise or power-of-two
    # arithmetic, with no BLAS, so these values hold on every platform.  psi and
    # the Haar pair pass through BLAS norms and a QR, so they are left out.
    rng = trial_rng(7, 0)
    a = random_hermitian(4, rng, label="A")
    b = random_hermitian(4, rng, label="B")
    random_pure_state(4, rng)
    rho = random_density(4, 4, rng)
    assert (a.digest, b.digest, rho.digest) == (
        "2d8fd1ff50614d8245463296362d70dffb62a442920004135edc99c82584ccef",
        "5e34f1539c5773b4e9e2cf938d32fd57d7c8a9603fddfc3cf5a41a1823bda909",
        "8e26c3d030015e2427fbe6f7f697d177c2fafee64d8568b1b20ef31b4e411f82")
    inputs = run_verification_suite(SampleConfig(4, 4, 7, 1), Tolerance()).trials[0]["inputs"]
    assert (inputs["a"], inputs["b"], inputs["rho"]) == (a.digest, b.digest, rho.digest)
    assert robertson(a, b, rho).inputs_digest == "dc82a1dc09eb6ec7"
    assert schrodinger(a, b, rho).inputs_digest == "5a7a993f85c661ce"


def _public_evaluations(n, k, rank, tol):
    """One sweep trial's inputs, redrawn in the sweep's order (its pair by
    ``_haar_columns``, so a patched ``sampling._haar_stack`` perturbs it as it
    perturbs the sweep's): the record's inputs block, from their own digests,
    and its evaluations made through the public entries."""
    rng = trial_rng(7, k)
    a = random_hermitian(n, rng, label="A")
    b = random_hermitian(n, rng, label="B")
    psi = random_pure_state(n, rng)
    rho = random_density(n, rank, rng)
    evaluations = {
        "robertson_pure": lambda: robertson(a, b, psi, tol),
        "schrodinger_pure": lambda: schrodinger(a, b, psi, tol),
        "robertson_mixed": lambda: robertson(a, b, rho, tol),
        "schrodinger_mixed": lambda: schrodinger(a, b, rho, tol),
    }
    pair = None
    if n >= 2:
        columns = _haar_columns(n, 2, rng)
        pair = PureState(columns[:, 0]), PureState(columns[:, 1])
        evaluations["mp3"] = lambda: mp3(a, b, *pair, tol).report
        evaluations["mp6"] = lambda: _mp6_entries(mp6(a, b, *pair, tol))
        evaluations["mp_chain"] = lambda: dict(zip(
            ("chain_step1", "chain_step2", "chain_step3"), mp_chain(a, b, *pair, 1j, tol).steps))
    evaluations["robertson_pure_certificate"] = lambda: robertson_saturation_pure(a, b, psi, tol)
    evaluations["robertson_mixed_certificate"] = lambda: robertson_saturation_mixed(a, b, rho, tol)
    evaluations["schrodinger_certificate"] = lambda: schrodinger_saturation(a, b, rho, tol)
    if n == 2:
        evaluations["construct_case1"] = lambda: construct_case1(a, b, tol)
    elif n > 2:
        evaluations["construct_case2"] = lambda: construct_case2(a, b, tol)
    if n >= 2:
        evaluations["construct_w_mp6"] = lambda: construct_w_mp6(a, b, tol)
    inputs = {"a": a.digest, "b": b.digest, "psi": psi.digest, "rho": rho.digest,
              "pair": None if pair is None else [pair[0].digest, pair[1].digest]}
    return inputs, evaluations


def _mp6_entries(reports):
    """mp6's entries: its reformulated form, and its product form unless that is None (a degenerate denominator)."""
    entries = {"mp6_reformulated": reports.reformulated}
    if reports.product is not None:
        entries["mp6_product"] = reports.product
    return entries


def _as_entry(result):
    """A public report as the decision a sweep records (its sides, slack and flag); any other result as it is."""
    if isinstance(result, BoundReport):
        return relations._Decision(result.lhs, result.rhs, result.slack, result.saturated)
    return result


def _sweep_against_public_api(n, tol):
    """Run a sweep and assert that its records and summary are what the public entries give."""
    config = SampleConfig(n, min(n, 2), 7, 17)
    report = run_verification_suite(config, tol)
    summary = reporting._Summary()
    for k in range(config.count):
        inputs, evaluations = _public_evaluations(n, k, config.rank, tol)
        record = {"trial": k, "inputs": inputs}
        for where, evaluate in evaluations.items():
            key = "mp6_reformulated" if where == "mp6" else where
            try:
                result = evaluate()
            except ZeroDeviation:
                record[key] = {"skipped": "zero deviation"}
            except QuboundsError as exc:
                summary.fail(k, where, exc)
                record[key] = {"error": type(exc).__name__}
            else:
                for name, value in (result if isinstance(result, dict) else {where: result}).items():
                    summary.file(record, k, name, _as_entry(value))
        assert report.trials[k] == record
    assert report.summary == dict(vars(summary), failure_count=len(summary.failures))
    return report


@pytest.mark.parametrize("tol", [Tolerance(), Tolerance(0.0)], ids=["default", "zero"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 16])
def test_sweep_records_equal_the_public_api(n, tol, monkeypatch):
    # The sweep runs the private bodies on reductions it shares between
    # evaluations; every entry, skips and errors included, and every failure
    # message must be what the public entries give on the same inputs.
    # Every guard, the pair checks included, keeps its rounding floor, so not
    # even a zero budget rejects a valid input.  Chunks of 5 trials put chunk
    # boundaries inside the 17 trials.
    monkeypatch.setattr(sampling, "CHUNK_BYTES", 5 * 16 * n * n)
    assert _sweep_against_public_api(n, tol).summary["failure_count"] == 0
    if n >= 2:
        # A pair leaning off orthogonal compares the error path too.
        monkeypatch.setattr(sampling, "_haar_stack", _perturbed_stack(_lean))
        assert _sweep_against_public_api(n, tol).summary["failure_count"] > 0
        # A pair stretched off unit norm passes the overlap test and reaches the Gram test,
        # which only the zero budget fails, in every Maccone-Pati evaluation of every trial.
        # At the default budget the stretched pairs are admitted, and the violation floors
        # carry the Gram deviation, so nothing fails.
        monkeypatch.setattr(sampling, "_haar_stack", _perturbed_stack(_stretch))
        failures = _sweep_against_public_api(n, tol).summary["failures"]
        gram_tests = [(f["trial"], f["where"]) for f in failures if f["error"] == "NotOrthonormal"]
        if tol.eps == 0:
            assert gram_tests == [(k, where) for k in range(17) for where in ("mp3", "mp6", "mp_chain")]
            assert len(failures) == len(gram_tests)
        else:
            assert failures == []


def test_a_sweep_of_stretched_pairs_the_gram_test_admits_fails_nowhere(monkeypatch):
    # Qubit trials 4, 10 and 13 of this sweep read an mp6 slack below the floor of the sides
    # and inputs alone once phi is stretched by 1 + 5e-11; the Gram term of the floor admits them.
    monkeypatch.setattr(sampling, "_haar_stack", _perturbed_stack(_stretch))
    assert run_verification_suite(SampleConfig(2, 2, 7, 17), Tolerance()).summary["failure_count"] == 0


def test_package_version_is_the_artifact_version():
    # qubounds.__version__ is ARTIFACT_VERSION; pyproject.toml must say the same.
    # A regex, since tomllib needs Python 3.11 and requires-python allows 3.10.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "([^"]+)"$', text, re.M).group(1) == reporting.ARTIFACT_VERSION


def test_zero_tolerance_sweep_fails_nowhere():
    # The Haar pair's overlap and Gram deviation are rounding noise, within the
    # pair checks' rounding floor; every other guard keeps its floor too.
    for n, rank in ((1, 1), (2, 2), (3, 2), (4, 4), (16, 3)):
        report = run_verification_suite(SampleConfig(n, rank, 7, 10), Tolerance(0.0))
        assert report.summary["failure_count"] == 0


def test_bare_command_parses_to_the_default_tolerance():
    assert Tolerance(build_parser().parse_args(["verify"]).tol) == linalg.DEFAULT_TOL


def _long_options() -> dict:
    """Each subcommand's long options, as its parser declares them."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {option for action in sub._actions for option in action.option_strings
                   if option.startswith("--")} - {"--help"} for name, sub in subparsers.choices.items()}


def test_each_subcommand_takes_exactly_its_long_options():
    assert _long_options() == {
        "verify": {"--n", "--rank", "--trials", "--seed", "--tol", "--out", "--format"},
        "reproduce": {"--out"},
        "saturate": {"--target", "--tol", "--out"},
    }


def _readme_option_rows(readme: str) -> dict:
    """The long options in each subcommand's row of README's "Command line" table."""
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    return {m.group(1): set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", m.group(2)))
            for m in re.finditer(r"^\| `(\w+)` \|(.*)\|$", section, flags=re.M)}


def test_readme_names_exactly_the_cli_long_options():
    # Outside "Install and test", which names pip's flags, README names every long
    # option of every subcommand and no option the CLI lacks, and its "Command line"
    # table gives each subcommand exactly its own options, so a renamed flag, or one
    # given to the wrong subcommand, fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    head, install = readme.split("## Install and test", 1)
    text = head + install.split("\n## ", 1)[1]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
    options = _long_options()
    assert "--tol" in options["verify"] and named == set().union(*options.values())
    assert _readme_option_rows(readme) == options
    # The row check is what catches a misplaced option: the union above does not move.
    misplaced = readme.replace("| `reproduce` | `--out` |", "| `reproduce` | `--out`, `--format` |")
    assert misplaced != readme and _readme_option_rows(misplaced) != options


def test_every_named_threshold_is_in_the_readme_table():
    # Each module-level *_TOL has a row in README "Tolerances" that gives its value.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Tolerances", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    names = 0
    for info in pkgutil.iter_modules(qubounds.__path__):
        module = importlib.import_module(f"qubounds.{info.name}")
        for name, value in vars(module).items():
            if not name.endswith("_TOL"):
                continue
            expected = (value.eps if isinstance(value, Tolerance) else value,)
            row = next((r for r in rows if r.startswith(f"| `{name}` |")), "| | |")
            value_cell = row.split("|")[2]
            assert tuple(map(float, re.findall(r"\d+(?:\.\d+)?e-?\d+", value_cell))) == expected, name
            names += 1
    assert names >= 6


PUBLIC_NAMES = [
    "ARTIFACT_VERSION", "BoundReport", "BoundViolation", "CONSTRUCTION_TOL", "CertificateKind",
    "ChainReport", "ChainSaturation", "ConstructedPair", "CorollaryViolation", "DEFAULT_TOL",
    "DensityMatrix", "DimensionMismatch", "EqualityCheck", "HypothesisViolated",
    "InvalidInput", "MP3Report", "MP6Reports", "MPFrame", "MuChoice", "NonHermitianInput", "NonRealExpectation",
    "NotOrthogonal", "NotOrthonormal", "NotPositiveSemidefinite", "Observable", "PairMoments",
    "PureState", "QuantumState", "QuboundsError", "RIndependenceViolation", "RankUnachieved",
    "RunManifest", "SampleConfig", "SaturationCertificate", "SuiteReport", "Tolerance",
    "ZeroDeviation", "ZeroProductCheck", "ZeroWitness", "bloch_state", "choose_mu",
    "complex_dependence", "construct_case1", "construct_case2", "construct_w_mp6", "expectation",
    "haar_unitary", "hermitian_eig", "mp3", "mp3_saturation", "mp6", "mp6_saturation", "mp_chain",
    "mp_chain_saturation", "mp_frame", "mu_ratio", "pair_moments", "phase_dependence", "psd_power",
    "qubit_commutation_witness", "random_density", "random_hermitian", "random_pure_state",
    "robertson", "robertson_saturation_mixed", "robertson_saturation_pure",
    "run_verification_suite", "schrodinger", "schrodinger_saturation", "stddev", "trial_rng",
    "unitary_completion", "zero_product_characterization", "zero_sum_characterization",
]


def test_public_surface_is_pinned():
    # Adding or removing a public name is an API change, and must show here.
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert qubounds.__all__ == PUBLIC_NAMES


def test_every_benchmarked_function_is_public():
    # The benchmark's traced runs read each per-layer `<module>.<fn>.calls` or
    # `.self_us` of a qubounds module from a wrapper around the public function
    # <fn> defined in that module; deleting or renaming one breaks those runs.
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    modules = {info.name for info in pkgutil.iter_modules(qubounds.__path__)}
    named = set()
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[0] in modules and parts[2] in ("calls", "self_us"):
            module = importlib.import_module(f"qubounds.{parts[0]}")
            fn = getattr(module, parts[1], None)
            assert not parts[1].startswith("_"), metric["name"]
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__, metric["name"]
            named.add((parts[0], parts[1]))
    assert len(named) >= 25
