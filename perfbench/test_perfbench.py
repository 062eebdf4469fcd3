"""Tests of the benchmark itself: every workload runs at smoke size with
no failures, and every check can fail.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import repro  # noqa: E402
from repro.semirings import ALL_SEMIRINGS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_has_every_metric_and_no_failure(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _perturbed(x: sp.csr_matrix, semiring: str) -> sp.csr_matrix:
    """``x`` with one entry changed to another value of the semiring."""
    x = x.copy()
    data = x.data
    finite = np.flatnonzero(np.isfinite(data.astype(np.float64)) & (data != 0))
    at = int(finite[0]) if finite.size else 0
    if semiring == "boolean":
        data[at] = not data[at]
    elif semiring == "gf2":
        data[at] ^= 1
    elif semiring == "integer-ring":
        data[at] += 1
    elif semiring == "viterbi":
        data[at] *= 0.5
    else:
        data[at] += 1e-3
    return x


@pytest.mark.parametrize("semiring", [sr.name for sr in ALL_SEMIRINGS])
def test_product_check_accepts_the_product_and_rejects_one_wrong_entry(semiring):
    sr = next(s for s in ALL_SEMIRINGS if s.name == semiring)
    inst = repro.make_instance((repro.US, repro.US, repro.AS), 32, 4, np.random.default_rng(5), semiring=sr)
    x = repro.multiply(inst).x
    assert checker.check_instance_product(inst, x) is None
    assert checker.check_instance_product(inst, _perturbed(x, semiring)) is not None


def test_product_check_rejects_a_missing_entry():
    inst = repro.make_instance((repro.US, repro.US, repro.US), 24, 3, np.random.default_rng(2))
    x = repro.multiply(inst).x.tocoo()
    short = sp.csr_matrix((x.data[1:], (x.row[1:], x.col[1:])), shape=x.shape)
    assert "missing" in checker.check_instance_product(inst, short)


def test_triangle_and_two_hop_checks_can_fail():
    from repro.apps.graphs import random_regular_adjacency
    from repro.apps.shortest_paths import distance_instance
    from repro.apps.triangles import count_triangles

    adj = random_regular_adjacency(16, 4, seed=1)
    count = count_triangles(adj).count
    assert checker.check_triangle_count(adj, count) is None
    assert checker.check_triangle_count(adj, count + 1) is not None

    weights = sp.csr_matrix(adj, dtype=np.float64) * 3.0
    x = repro.multiply(distance_instance(weights)).x
    assert checker.check_two_hop(weights, x) is None
    bad = x.copy()
    bad.data[0] += 1.0
    assert checker.check_two_hop(weights, bad) is not None


def test_wire_check_rejects_a_digest_mismatch():
    from repro.transport import run_over_transport

    inst = repro.make_instance((repro.US, repro.US, repro.AS), 16, 2, np.random.default_rng(4))
    local = run_over_transport(inst, transport="local")
    again = run_over_transport(inst, transport="local")
    assert checker.check_wire(again, local) is None
    assert "values_digest" in checker.check_wire(dataclasses.replace(again, values_digest="0" * 32), local)
    assert "rounds" in checker.check_wire(dataclasses.replace(again, rounds=again.rounds + 1), local)


def test_served_check_rejects_wrong_rounds_and_a_failed_certificate():
    from repro.serve import execute_batch, multiply_job

    inst = repro.make_instance((repro.US, repro.US, repro.US), 16, 2, np.random.default_rng(6))
    direct = repro.multiply(inst).rounds
    plain, certified = execute_batch([
        multiply_job("t", inst),
        multiply_job("t", inst, certify_checks=2),
    ])
    assert checker.check_served(plain, direct, certify_requested=False) is None
    assert checker.check_served(certified, direct, certify_requested=True) is None
    wrong = dataclasses.replace(plain, rounds=plain.rounds + 1)
    assert "rounds" in checker.check_served(wrong, direct, certify_requested=False)
    uncertified = dataclasses.replace(certified, certified=False)
    assert "certif" in checker.check_served(uncertified, direct, certify_requested=True)


def test_a_wrong_result_counts_as_failed(monkeypatch):
    import workloads

    workload = workloads.WarmResolve(seed=1, smoke=True)
    workload.setup()
    honest = repro.multiply

    def wrong(inst, **kwargs):
        res = honest(inst, **kwargs)
        res.x = _perturbed(res.x, inst.semiring.name)
        return res

    monkeypatch.setattr(repro, "multiply", wrong)
    run = workload.run(seconds=60.0, max_ops=2)
    assert run.attempted == 2 and run.failed == 2
    assert not run.broken
