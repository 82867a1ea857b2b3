"""Every operation and check of the benchmark's ``paths`` workload
(perfbench/workloads.py, imported read-only) on fixed rounds, among them
round 86 of seed 8, where a tapered concatenation that the invariants
recover to 7e-7 used to fail the absolute Gauss-residual bound, and
round 0 of seeds 0-19, chosen by that rule and not by their outcome."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("seed, rounds", [
    (8, [86]), (3, [0, 1]), (0, [0]), (1, [0]), (2, [0]), (4, [0]),
    (5, [0]), (6, [0]), (7, [0]), (8, [0]), (9, [0]),
    *((seed, [0]) for seed in range(10, 20)),
])
def test_paths_rounds_pass_every_check(seed, rounds, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    paths = workloads.Paths(seed, tmp_path)
    failed = []
    for index in rounds:
        for op in paths.round(index):
            try:
                message = op.check(op.call())
            except Exception as err:  # a raising operation is a failed one
                message = repr(err)
            if message and not op.fault:  # the benchmark's known faults
                failed.append(f"round {index} {op.kind}: {message}")
    assert failed == []
