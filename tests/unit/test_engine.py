"""Unit tests for the execution-model physics (forward and inverse maps)."""

import numpy as np
import pytest

from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import KernelConfig, VectorWidth


def _layout(intensity=8.0, nodes=6, waiting=0.0, imbalance=1, vector=VectorWidth.YMM):
    job = Job(
        name="t",
        config=KernelConfig(
            intensity=intensity,
            waiting_fraction=waiting,
            imbalance=imbalance,
            vector=vector,
        ),
        node_count=nodes,
    )
    return WorkloadMix(name="t", jobs=(job,)).layout()


def _epoch(model, layout, caps, eff=None):
    """``(caps, freq, compute_s, compute_power, poll_power)`` at ``caps``."""
    if eff is None:
        eff = np.ones(layout.host_count)
    return model.bind(layout, eff)(np.asarray(caps, dtype=float))


class TestForward:
    def test_frequencies_shape(self, execution_model):
        layout = _layout()
        out = _epoch(execution_model, layout, np.full(6, 200.0))
        for a in out:
            assert a.shape == (6,)

    def test_higher_caps_never_slower(self, execution_model):
        layout = _layout()
        _, f_low, t_low, _, _ = _epoch(execution_model, layout, np.full(6, 150.0))
        _, f_high, t_high, _, _ = _epoch(execution_model, layout, np.full(6, 230.0))
        assert np.all(f_high >= f_low)
        assert np.all(t_high <= t_low)

    def test_compute_time_positive(self, execution_model):
        layout = _layout()
        t = _epoch(execution_model, layout, np.full(6, 200.0))[2]
        assert np.all(t > 0)

    def test_compute_time_decreases_with_freq_when_compute_bound(self, execution_model):
        layout = _layout(intensity=32.0)
        _, f_slow, t_slow, _, _ = _epoch(execution_model, layout, np.full(6, 140.0))
        _, f_fast, t_fast, _, _ = _epoch(execution_model, layout, np.full(6, 240.0))
        assert np.all(f_fast > f_slow)
        assert np.all(t_fast < t_slow)

    def test_zero_intensity_time_is_memory_time(self, execution_model):
        layout = _layout(intensity=0.0)
        _, f, t, _, _ = _epoch(execution_model, layout, np.full(6, 240.0))
        bw = execution_model.roofline.bandwidth("DRAM").effective(
            f[0] / execution_model.roofline.base_freq_ghz
        )
        assert t[0] == pytest.approx(layout.traffic_gb[0] / bw)

    def test_critical_hosts_take_longer(self, execution_model):
        layout = _layout(waiting=0.5, imbalance=3)
        t = _epoch(execution_model, layout, np.full(6, 200.0))[2]
        assert t[layout.critical].min() > t[~layout.critical].max()

    def test_compute_power_at_most_activity_limit(self, execution_model):
        layout = _layout()
        eff = np.ones(6)
        p = _epoch(execution_model, layout, np.full(6, 240.0), eff)[3]
        uncapped = execution_model.power_model.uncapped_power(layout.kappa, eff)
        np.testing.assert_allclose(p, uncapped)

    def test_poll_power_below_compute_power_uncapped(self, execution_model):
        """At the hottest configuration the poll loop draws less than the
        compute phase."""
        layout = _layout(intensity=8.0)
        _, _, _, p_comp, p_poll = _epoch(execution_model, layout, np.full(6, 240.0))
        assert np.all(p_poll < p_comp)


class TestInverse:
    def test_required_frequency_meets_target(self, execution_model):
        """Capping each host at its required power meets the target time,
        exactly where that power is a settable cap (the balancer's path:
        required power -> cap -> bound physics)."""
        layout = _layout(intensity=16.0, waiting=0.5, imbalance=3)
        eff = np.ones(6)
        kernel = execution_model.bind(layout, eff)
        t_tdp = kernel(np.full(6, 240.0))[2]
        settable = 0
        for stretch in (1.05, 1.25, 2.0):  # slower target => less power
            target = t_tdp * stretch
            p_req = execution_model.required_power(layout, target, eff)
            t = kernel(p_req)[2]
            assert np.all(t <= target * (1.0 + 1e-9))
            in_band = (p_req >= 136.0) & (p_req <= 240.0)
            np.testing.assert_allclose(t[in_band], target[in_band], rtol=1e-6)
            settable += int(in_band.sum())
        assert settable > 0

    def test_required_frequency_clamps_to_band(self, execution_model):
        layout = _layout(intensity=16.0)
        spec = execution_model.power_model.spec
        f_fast = execution_model.required_frequency(layout, 1e-9)
        f_slow = execution_model.required_frequency(layout, 1e9)
        np.testing.assert_allclose(f_fast, spec.turbo_freq_ghz)
        np.testing.assert_allclose(f_slow, spec.min_freq_ghz)

    def test_required_frequency_rejects_nonpositive_target(self, execution_model):
        layout = _layout()
        with pytest.raises(ValueError):
            execution_model.required_frequency(layout, 0.0)

    def test_required_power_monotone_in_target(self, execution_model):
        """Tighter deadlines need more power."""
        layout = _layout(intensity=16.0)
        eff = np.ones(6)
        p_tight = execution_model.required_power(layout, 0.05, eff)
        p_loose = execution_model.required_power(layout, 0.5, eff)
        assert np.all(p_tight >= p_loose)

    def test_memory_bound_requires_little_frequency(self, execution_model):
        """A DRAM-bound kernel's bandwidth requirement is mostly
        frequency-insensitive, so generous targets need minimum freq."""
        layout = _layout(intensity=0.25)
        eff = np.ones(6)
        kernel = execution_model.bind(layout, eff)
        target = kernel(np.full(6, 240.0))[2] * 2.0
        f_req = execution_model.required_frequency(layout, target)
        spec = execution_model.power_model.spec
        np.testing.assert_allclose(f_req, spec.min_freq_ghz)
        # Round trip: the required power is below the RAPL floor, so the
        # floor cap finishes early.
        p_req = execution_model.required_power(layout, target, eff)
        assert np.all(p_req < 136.0)
        assert np.all(kernel(p_req)[2] <= target)


def _critical_time(model, layout, caps):
    """Noise-free per-job iteration time: segmented max of host times."""
    t = _epoch(model, layout, caps)[2]
    return np.maximum.reduceat(t, layout.job_boundaries[:-1], axis=-1)


class TestJobCriticalTime:
    def test_balanced_job(self, execution_model):
        layout = _layout(nodes=4)
        caps = np.full(4, 200.0)
        t_crit = _critical_time(execution_model, layout, caps)
        t = _epoch(execution_model, layout, caps)[2]
        assert t_crit.shape == (1,)
        assert t_crit[0] == pytest.approx(t.max())

    def test_two_jobs_independent(self, execution_model):
        jobs = (
            Job(name="a", config=KernelConfig(intensity=32.0), node_count=3),
            Job(name="b", config=KernelConfig(intensity=0.25), node_count=3),
        )
        layout = WorkloadMix(name="m", jobs=jobs).layout()
        caps = np.full(6, 220.0)
        t_crit = _critical_time(execution_model, layout, caps)
        assert t_crit.shape == (2,)
        assert t_crit[0] != t_crit[1]
        t = _epoch(execution_model, layout, caps)[2]
        assert t_crit[0] == t[:3].max() and t_crit[1] == t[3:].max()
