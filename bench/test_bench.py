"""Tests of the benchmark's own machinery: span arithmetic, wrapper hygiene, count stability."""

from __future__ import annotations

import json

import numpy as np
import pytest

import qubounds
import qubounds.relations as relations
import spans
import worker
from spans import ROOT, Tracer, find_wrappers, self_times
from workloads import WORKLOADS


def test_self_times_on_hand_built_tree():
    # index: 0 root A, 1 B under A, 2 C under A overlapping B, 3 D under B,
    # 4 E under A running past A's end, 5 a second root F.
    parents = [ROOT, 0, 0, 1, 0, ROOT]
    starts = [0, 10, 30, 15, 90, 200]
    ends = [100, 40, 60, 20, 120, 210]
    # A: 100 minus the union of [10, 60] and [90, 100]; B: 30 minus D's 5.
    assert self_times(parents, starts, ends) == [40, 25, 30, 5, 30, 10]


def test_self_times_children_outside_parent_cost_nothing():
    assert self_times([ROOT, 0, 0], [10, 0, 25], [20, 5, 30]) == [10, 5, 5]


def _namespace_snapshot() -> dict:
    return {(module.__name__, attr): obj
            for module in spans.qubounds_modules() + [np.linalg]
            for attr, obj in vars(module).items()}


def test_tracer_records_calls_and_restores_every_function():
    before = _namespace_snapshot()
    sx = qubounds.Observable(np.array([[0, 1], [1, 0]], dtype=complex))
    sy = qubounds.Observable(np.array([[0, -1j], [1j, 0]]))
    ket0 = qubounds.PureState(np.array([1.0, 0.0]))
    with Tracer() as tracer:
        assert "qubounds.relations.robertson" in find_wrappers()
        assert "numpy.linalg.eigh" in find_wrappers()
        relations.robertson(sx, sy, ket0)
    assert find_wrappers() == []
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    calls = {name: count for name, (count, _) in tracer.totals().items()}
    assert calls["relations.robertson"] == 1
    assert calls["states.pair_moments"] == 1


def test_untraced_run_holds_no_wrappers(monkeypatch, tmp_path, capsys):
    seen = []
    real_run_op = worker.run_op

    def checking_run_op(op, tally):
        seen.append(find_wrappers())
        return real_run_op(op, tally)

    monkeypatch.setattr(worker, "run_op", checking_run_op)
    code = worker.main(["--workload", "certify-saturating", "--seed", "3",
                        "--seconds", "0.2", "--trace", "0", "--out-dir", str(tmp_path)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["failed"] == 0
    assert seen and all(found == [] for found in seen)


def test_untraced_run_refuses_leftover_wrappers(tmp_path):
    with Tracer():
        with pytest.raises(RuntimeError, match="wrappers"):
            worker.main(["--workload", "certify-saturating", "--seed", "3",
                         "--seconds", "0.1", "--trace", "0", "--out-dir", str(tmp_path)])


@pytest.mark.parametrize("name, hit_ratio", [("sweep-n4", 0.0), ("certify-saturating", 1.0)])
def test_two_traced_runs_give_identical_calls(tmp_path, name, hit_ratio):
    ops = WORKLOADS[name].build(5)
    runs = []
    for _ in range(2):
        tally = worker.Tally()
        units, nominal_ns, measured_ns, tracer = worker.traced_phase(
            ops, WORKLOADS[name].kernel, 0.0, tally, tmp_path, name)
        assert tally.failed == 0
        metrics = worker.layer_metrics(tracer, units, nominal_ns / measured_ns)
        runs.append({key: value for key, (value, _) in metrics.items() if key.endswith(".calls")})
        assert metrics["saturation.certificate_hit_ratio"][0] == hit_ratio
    assert runs[0] == runs[1]
    assert runs[0]["linalg.require_hermitian.calls"] > 0
    written = json.loads((tmp_path / f"{name}.spans.json").read_text())
    assert len(written["start_ns"]) == len(written["parent"]) == len(written["name"])
