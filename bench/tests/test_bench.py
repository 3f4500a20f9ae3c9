"""Tests of the benchmark itself: inputs, tracing, statistics and checks.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

import lgsim
import lgsim.cli  # noqa: F401  (the tracer patches it; load it before snapshots)
import run_bench
import tracing
import workloads


def _lgsim_namespaces():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if module is not None and (name == "lgsim" or name.startswith("lgsim."))
    }


# -- inputs -----------------------------------------------------------------


def _point_stream(seed, n=40):
    rng = workloads.stream("point-checks", seed, 0)
    return [workloads.point_input(rng, i) for i in range(n)]


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def test_inputs_are_deterministic_per_seed():
    assert _same(_point_stream(7), _point_stream(7))
    sweeps = [workloads.sweep_input(workloads.stream("sweep-grid", 7, 0)) for _ in range(2)]
    assert _same(sweeps[0], sweeps[1])
    assert workloads.cli_variants(7) == workloads.cli_variants(7)


def test_inputs_differ_between_seeds():
    assert not _same(_point_stream(7), _point_stream(8))
    assert not _same(workloads.sweep_input(workloads.stream("sweep-grid", 7, 0)),
                     workloads.sweep_input(workloads.stream("sweep-grid", 8, 0)))
    assert workloads.cli_variants(7) != workloads.cli_variants(8)


def test_point_checks_keep_fixed_proportions():
    kinds = [op["kind"] for op in _point_stream(3, n=100)]
    for kind in set(workloads.POINT_CYCLE):
        assert kinds.count(kind) == 10 * workloads.POINT_CYCLE.count(kind)


# -- tracing ----------------------------------------------------------------


def test_every_patched_attribute_is_restored():
    before = _lgsim_namespaces()
    tracer = tracing.Tracer()
    with tracer:
        assert lgsim.circuit.run is not before["lgsim.circuit"]["run"]
        # one wrapper per function, installed under every importing name
        assert lgsim.leggett_garg.run is lgsim.circuit.run
        assert lgsim.run is lgsim.circuit.run
        assert lgsim.states.density is lgsim.linalg.density
    after = _lgsim_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"


def test_errors_are_counted_and_reraised():
    tracer = tracing.Tracer()
    with tracer, pytest.raises(ValueError):
        lgsim.operator(np.zeros((3, 3)))
    tracer.drain()
    assert tracer.errors["linalg.operator"] == 1
    assert tracer.calls["linalg.operator"] == 1


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ("root", -1, 0, 100),
        ("a", 0, 10, 30),     # overlaps b: the union [10, 40] counts once
        ("b", 0, 20, 40),
        ("c", 0, 90, 120),    # sticks out of root: clipped to [90, 100]
        ("a.leaf", 1, 12, 18),
        ("d", -1, 200, 210),  # second root, no children
    ]
    assert tracing.self_times(spans) == [60, 14, 20, 30, 6, 10]


def test_drain_folds_spans_into_totals():
    tracer = tracing.Tracer()
    with tracer:
        lgsim.pure_density(lgsim.KET0)
    spans = tracer.spans()
    tracer.drain()
    assert tracer.spans() == []
    assert tracer.calls["states.pure_density"] == 1
    assert sum(tracer.self_ns.values()) == spans[0][3] - spans[0][2]


def test_default_sweep_matches_the_seed_profile():
    rho = lgsim.classical_mixture(0.5, 0.5)
    tracer = tracing.Tracer()
    with tracer:
        lgsim.sweep(lgsim.Evolution(1.0), rho, 1.0, 0.0, 2.0 * math.pi, 721)
    tracer.drain()
    assert tracer.calls["circuit.run"] == 4326
    assert tracer.calls["linalg.expm_hermitian"] == 8652
    assert tracer.calls["linalg.eig_hermitian"] == 2163
    assert tracer.calls["leggett_garg.correlation_circuit"] == 2163
    # the three correlators at theta = 0 are (0, 0) builds as well
    assert tracer.reference_builds == 2163 + 3


def _traced_calls(seed):
    tracer = tracing.Tracer()
    with tracer:
        for op in _point_stream(seed, n=30):
            workloads.run_point(lgsim, op)
            tracer.drain()
    return tracer.calls


def test_traced_call_counts_repeat_for_a_seed():
    first = _traced_calls(11)
    assert first == _traced_calls(11)
    assert first["nmr.tomography_fidelity_experiment"] == 3


# -- statistics ---------------------------------------------------------------


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run_bench.tail_percentile(20) == 50
    assert run_bench.tail_percentile(25) == 60
    assert run_bench.tail_percentile(1000) == 99
    assert run_bench.tail_percentile(5) == 50
    for n in (20, 37, 400):
        xs = list(range(n))
        q = run_bench.tail_percentile(n)
        assert sum(1 for x in xs if x > run_bench.percentile(xs, q)) >= 10


def test_scaling_cancels_host_speed():
    # A spawn that takes twice as long while the reference loop does too
    # scales to the same set-up time.
    slow_and_fast = [(0.2, 0.010), (0.4, 0.020), (0.3, 0.015)]
    assert run_bench.scaled_setup(slow_and_fast) == pytest.approx(0.2)
    res = {"by_slot": {"a": [1.0, 3.0], "b": [0.5]}, "rounds": [1.0, 2.0, 6.0]}
    assert run_bench.round_time("cli", res) == pytest.approx(2.5)
    assert run_bench.round_time("sweep-grid", res) == pytest.approx(3.0)


def test_percentile_interpolates_like_numpy():
    xs = [3.0, 1.0, 7.0, 2.5, 9.0]
    for q in (0, 37, 50, 99, 100):
        assert run_bench.percentile(xs, q) == pytest.approx(np.percentile(xs, q))


# -- checks -------------------------------------------------------------------


def test_violation_reference_on_the_full_cycle():
    thetas = list(np.linspace(0.0, 2.0 * math.pi, 721))
    ks = [workloads.k_closed_form(t) for t in thetas]
    got = [(lo, hi) for lo, hi, _ in workloads.violation_ref(thetas, ks)]
    assert got == pytest.approx([(0.0, math.pi / 2.0), (1.5 * math.pi, 2.0 * math.pi)])


def test_checks_reject_a_wrong_correlator():
    op = next(o for o in _point_stream(5) if o["kind"] == "correlator")
    ref = workloads.correlator_ref(op["rho"], op["obs"], op["omega"], *op["times"])
    drawn = workloads.correlator_ref(op["rho"], op["obs"], op["omega_oracle"], *op["times"])
    assert workloads.check_point(op, (ref, ref, drawn)) is None
    assert workloads.check_point(op, (ref + 1e-9, ref, drawn)) is not None
    assert workloads.check_point(op, (ref, ref + 1e-9, drawn)) is not None
    assert workloads.check_point(op, (ref, ref, drawn + 1e-9)) is not None


def test_every_point_check_op_passes():
    for op in _point_stream(9, n=60):
        assert workloads.check_point(op, workloads.run_point(lgsim, op)) is None, op


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(run_bench.HERE / "run_bench.py"), "--workload", "cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


class _StubLgsim:
    """Just enough of lgsim for the omega probe, with a chosen phase scale."""

    def __init__(self, squared):
        self.squared = squared

    density = dichotomic_observable = staticmethod(lambda x: x)
    Evolution = staticmethod(lambda omega: omega)

    def correlation_circuit(self, rho, obs, omega, t_k, t_m, eps):
        scale = omega if self.squared else 1.0
        return None, workloads.correlator_ref(rho, obs, omega, scale * t_k, scale * t_m)


def test_omega_defect_probe_counts_mismatches():
    # correlation_circuit scales its phases by omega twice (README, "Known
    # defect"); the probe reports that in the record without failing an op.
    assert workloads.omega_defect_probe(_StubLgsim(squared=False), 13)["mismatched"] == 0
    assert workloads.omega_defect_probe(_StubLgsim(squared=True), 13)["mismatched"] == 10
    assert workloads.omega_defect_probe(lgsim, 13)["cases"] == 10
