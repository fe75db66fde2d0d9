"""Checks of the benchmark itself: exact counts, wrapper coverage, absent
layers, oracle sensitivity and refusal to run without the program.

Run from the repository root: ``python -m pytest bench`` (about a minute).
"""

import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

COUNT_METRICS = [name for name, (unit, _, _) in LAYER_METRICS.items()
                 if unit in ("count", "bytes")]


def _traced_pass(name: str, seed: int, out_dir: Path):
    workload = workloads.WORKLOADS[name]()
    workload.prepare(seed, out_dir)
    tracer = Tracer()
    tracer.install()
    try:
        inputs = workload.make_inputs(1)
        result, layer = run.execute_traced(workload, inputs, tracer)
    finally:
        tracer.uninstall()
    workload.check(inputs, result)
    return result, layer


@pytest.fixture(scope="module")
def two_traced_passes(tmp_path_factory):
    """Two independent traced passes of a workload at one seed, memoized."""
    done: dict = {}

    def get(name: str):
        if name not in done:
            done[name] = [_traced_pass(name, 2, tmp_path_factory.mktemp(name))
                          for _ in range(2)]
        return done[name]
    return get


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(two_traced_passes, name):
    (first, layer_a), (second, layer_b) = two_traced_passes(name)
    assert first.failed == second.failed == 0, first.failures + second.failures
    assert {m: layer_a[m] for m in COUNT_METRICS} == {m: layer_b[m] for m in COUNT_METRICS}
    assert layer_a["quadrature.synth_calls"] > 0
    assert layer_a["quadrature.disk_nodes"] > 0 and layer_a["quadrature.j0_evals"] > 0


def test_distinct_evaluations_equal_synthesis_calls(two_traced_passes):
    """A wrapper that misses a namespace importing ``synthesize_impulse``
    would make these differ."""
    (_, layer), _ = two_traced_passes("capacity_sweep")
    assert layer["mimo.build_calls"] > 0
    assert layer["mimo.distinct_evals"] == layer["quadrature.synth_calls"]
    assert layer["eigensolve.calls"] == layer["mimo.eigen_calls"]


def test_missing_function_is_an_absent_layer(monkeypatch):
    from reflectmimo import eigensolve
    monkeypatch.delattr(eigensolve, "jacobi_eigh")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["eigensolve.jacobi_eigh"]
    assert tracer.absent_metrics() == ["eigensolve.calls", "eigensolve.s"]


def test_uninstall_restores_every_namespace():
    from reflectmimo import mimo, quadrature
    originals = (mimo.synthesize_impulse, quadrature.j0, quadrature.estimate_nodes)
    tracer = Tracer()
    tracer.install()
    assert mimo.synthesize_impulse is not originals[0]
    tracer.uninstall()
    assert (mimo.synthesize_impulse, quadrature.j0, quadrature.estimate_nodes) == originals


def _small_fig5(tmp_path: Path):
    workload = workloads.ExperimentWorkload(
        "fig5", "capacity", 57.5, 4, workloads.check_capacity_table,
    )
    workload.prepare(0, tmp_path)
    inputs = workload.make_inputs(0)
    result = workload.execute(inputs)
    assert not result.failures
    return workload, workloads._read_rows(workload.csv_path)


def test_oracle_accepts_the_program_output(tmp_path):
    workload, rows = _small_fig5(tmp_path)
    result = workloads.PassResult(seconds=0.0, latencies=[])
    workloads.check_capacity_table(workload.geometry, rows, result, {})
    assert result.failures == []
    assert 0.0 < result.max_rel_err < 1e-6


def _check_perturbed(tmp_path, material: str, new_value) -> list[str]:
    workload, rows = _small_fig5(tmp_path)
    bound = next(float(r["bits_per_s_hz"]) for r in rows
                 if r["material"] == "upper_bound" and r["snr_db"] == "40.0")
    for row in rows:
        if row["material"] == material and row["snr_db"] == "40.0":
            row["bits_per_s_hz"] = repr(new_value(float(row["bits_per_s_hz"]), bound))
    result = workloads.PassResult(seconds=0.0, latencies=[])
    workloads.check_capacity_table(workload.geometry, rows, result, {})
    return result.failures


@pytest.mark.parametrize("material", ["los", "perfect_conductor"])
def test_oracle_rejects_a_perturbed_capacity(tmp_path, material):
    assert _check_perturbed(tmp_path, material, lambda value, bound: value * 1.01)


def test_oracle_rejects_a_capacity_above_the_bound(tmp_path):
    assert _check_perturbed(tmp_path, "concrete", lambda value, bound: bound * 1.001)


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in Path(run.__file__).parent.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "point_synthesis",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
