"""Property-based tests: the bound epoch kernel obeys the node physics.

``ExecutionModel.bind(layout, eff)`` is the simulator's only forward map
from node limits to caps, frequencies, compute-phase times and powers;
the runtime controllers, the stacked executor and its fault plan,
characterization and the experiments all evaluate caps through it.  For
every cap (inside, below and above the settable range), every host kind
(waiting hosts that poll at the barrier, hosts with no FLOPs) and both the
``(hosts,)`` and the stacked ``(S, hosts)`` layouts, its outputs must:

* clamp the limits into the RAPL range ``[136 W, TDP]``;
* run the clock within the DVFS band, no slower under a larger cap;
* take no longer under a larger cap;
* draw no more while polling than while computing when the poll loop's
  activity is no higher;
* evaluate each scenario row of an ``(S, hosts)`` call on a flat layout
  exactly as a ``(hosts,)`` call on that row (the stacked executor's
  determinism contract);
* give, in its one pass over the stacked compute and poll loads, each
  element exactly the power model's value on that element's load alone.

Repeated caps are served from the kernel's previous results, which must
come out as fresh arrays equal to a fresh evaluation.  The tracer that
wraps ``Controller._run_epoch`` must still see every epoch.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.runtime.controller import Controller
from repro.runtime.frequency_governor import FrequencyGovernorAgent
from repro.runtime.monitor import MonitorAgent
from repro.runtime.trace import attach_tracer
from repro.sim.batch import stack_job_layouts
from repro.sim.engine import ExecutionModel
from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import INTENSITY_GRID, KernelConfig

MODEL = ExecutionModel()
SPEC = MODEL.power_model.spec
#: Caps drawn across the RAPL floor (136 W) and past TDP (240 W).
CAPS = st.floats(60.0, 320.0, allow_nan=False)
#: Relative slack for comparisons between two rounded evaluations.
RTOL = 1e-12


@st.composite
def jobs(draw, hosts):
    # INTENSITY_GRID starts at 0.0: a zero-FLOP kernel (gflop == 0 hosts).
    intensity = draw(st.sampled_from(INTENSITY_GRID))
    if draw(st.booleans()):
        waiting = draw(st.sampled_from([0.25, 0.5, 0.75]))
        imbalance = draw(st.integers(2, min(3, hosts)))
    else:
        waiting, imbalance = 0.0, 1
    return Job(
        name="k",
        config=KernelConfig(
            intensity=intensity, waiting_fraction=waiting, imbalance=imbalance
        ),
        node_count=hosts,
    )


@st.composite
def kernel_cases(draw):
    """A layout (flat or stacked), efficiencies and two cap vectors."""
    hosts = draw(st.integers(2, 8))
    stacked = draw(st.booleans())
    if stacked:
        rows = draw(st.integers(1, 4))
        layout = stack_job_layouts(
            [draw(jobs(hosts)) for _ in range(rows)]
        )
        shape = (rows, hosts)
    else:
        job = draw(jobs(hosts))
        layout = WorkloadMix(name="k", jobs=(job,)).layout()
        shape = (hosts,)
    size = int(np.prod(shape))
    eff = np.array(
        draw(st.lists(st.floats(0.8, 1.25), min_size=size, max_size=size))
    ).reshape(shape)
    limits = [
        np.array(
            draw(st.lists(CAPS, min_size=size, max_size=size))
        ).reshape(shape)
        for _ in range(2)
    ]
    return layout, eff, limits


def _assert_equal(got, expected):
    names = ("caps", "freq", "compute_time", "compute_power", "poll_power")
    for name, g, e in zip(names, got, expected):
        assert g.shape == e.shape, name
        assert np.array_equal(g, e), name


class TestBoundEpochPhysics:
    @given(case=kernel_cases())
    @settings(max_examples=150, deadline=None)
    def test_caps_clamp_into_rapl_range(self, case):
        layout, eff, (limits, _) = case
        caps = MODEL.bind(layout, eff)(limits)[0]
        power = MODEL.power_model
        assert caps.shape == limits.shape
        np.testing.assert_array_equal(
            caps, np.clip(limits, power.min_cap_w, power.tdp_w)
        )

    @given(case=kernel_cases())
    @settings(max_examples=150, deadline=None)
    def test_more_power_runs_no_slower(self, case):
        """Frequency is non-decreasing and compute time non-increasing in
        the cap, and the clock stays inside the DVFS band."""
        layout, eff, (first, second) = case
        kernel = MODEL.bind(layout, eff)
        _, f_lo, t_lo, _, _ = kernel(np.minimum(first, second))
        _, f_hi, t_hi, _, _ = kernel(np.maximum(first, second))
        for f in (f_lo, f_hi):
            assert np.all(f >= SPEC.min_freq_ghz)
            assert np.all(f <= SPEC.turbo_freq_ghz)
        assert np.all(f_hi >= f_lo * (1.0 - RTOL))
        assert np.all(t_hi <= t_lo * (1.0 + RTOL))
        assert np.all(t_lo > 0) and np.all(np.isfinite(t_lo))

    @given(case=kernel_cases())
    @settings(max_examples=150, deadline=None)
    def test_poll_power_at_most_compute_power(self, case):
        """At equal caps the poll loop draws no more than the compute phase
        where its activity is no higher.  Each phase draws the cap unless
        its activity at the DVFS band's edge limits it; under a binding
        cap both draw about the cap, hence the rounding slack."""
        layout, eff, (limits, _) = case
        caps, _, _, p_compute, p_poll = MODEL.bind(layout, eff)(limits)
        calmer = np.broadcast_to(layout.poll_kappa <= layout.kappa, caps.shape)
        assert np.all(p_poll[calmer] <= p_compute[calmer] * (1.0 + RTOL))
        power = MODEL.power_model
        for p, kappa in ((p_compute, layout.kappa), (p_poll, layout.poll_kappa)):
            band = [power.power_at_freq(f, kappa, eff)
                    for f in (SPEC.min_freq_ghz, SPEC.turbo_freq_ghz)]
            np.testing.assert_allclose(p, np.clip(caps, *band), rtol=1e-9)

    @given(case=kernel_cases())
    @settings(max_examples=100, deadline=None)
    def test_scenario_rows_match_single_calls(self, case):
        """Row ``s`` of an ``(S, hosts)`` call on a flat layout equals a
        ``(hosts,)`` call on ``caps[s]``: the stacked executor evaluates
        ``S`` scenarios of one mix in one call."""
        layout, eff, (first, second) = case
        assume(first.ndim == 1)
        rows = np.stack([first, second, first])
        stacked = MODEL.bind(layout, eff)(rows)
        for s, row in enumerate(rows):
            single = MODEL.bind(layout, eff)(row)
            _assert_equal([out[s] for out in stacked], single)

    @given(case=kernel_cases(), per_row=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_one_pass_matches_each_load_alone(self, case, per_row):
        """The kernel evaluates the compute and poll loads in one stacked
        pass; each element of its compute frequency, compute power and
        poll power equals the power model evaluated on that element's
        cap and load alone, bit for bit.  ``per_row`` picks ``(S, hosts)``
        caps (the scenario rows of a flat layout, or a stacked layout's
        own rows), otherwise ``(hosts,)`` caps, which a stacked layout
        broadcasts over its rows."""
        layout, eff, (first, second) = case
        if not per_row:
            limits = first.reshape(-1, first.shape[-1])[0]
        elif first.ndim == 1:
            limits = np.stack([first, second, first])
        else:
            limits = first
        caps, freq, _, p_compute, p_poll = MODEL.bind(layout, eff)(limits)
        caps = np.broadcast_to(caps, freq.shape)
        power = MODEL.power_model
        loads = [np.broadcast_to(kappa * eff, freq.shape)
                 for kappa in (layout.kappa, layout.poll_kappa)]
        for at in np.ndindex(freq.shape):
            cap, compute, poll = (np.array([a[at]]) for a in (caps, *loads))
            f_compute = power.freq_at_cap_load(cap, compute)
            f_poll = power.freq_at_cap_load(cap, poll)
            assert np.array_equal(f_compute, [freq[at]])
            assert np.array_equal(power.power_at_freq_load(f_compute, compute),
                                  [p_compute[at]])
            assert np.array_equal(power.power_at_freq_load(f_poll, poll),
                                  [p_poll[at]])

    @given(case=kernel_cases())
    @settings(max_examples=30, deadline=None)
    def test_repeated_caps_hand_out_fresh_arrays(self, case):
        """Repeated caps are served from the previous call's results: they
        equal a fresh evaluation, and mutating one call's outputs cannot
        leak into the next."""
        layout, eff, (first, second) = case
        kernel = MODEL.bind(layout, eff)
        # A fresh value, a repeat, a change, and a return to the first caps.
        for limits in (first, first, second, first):
            _assert_equal(kernel(limits), MODEL.bind(layout, eff)(limits))
        for out in kernel(first):
            out[...] = np.nan
        _assert_equal(kernel(first), MODEL.bind(layout, eff)(first))

    def test_caps_below_floor_and_above_tdp_clamped(self):
        job = Job(name="k", config=KernelConfig(intensity=8.0), node_count=3)
        layout = WorkloadMix(name="k", jobs=(job,)).layout()
        caps = MODEL.bind(layout, np.ones(3))(np.array([50.0, 180.0, 400.0]))[0]
        np.testing.assert_array_equal(caps, [136.0, 180.0, 240.0])


class TestTracerSeesEveryEpoch:
    @given(
        agent=st.sampled_from(["monitor", "frequency_governor"]),
        epochs=st.integers(1, 40),
    )
    @settings(max_examples=20, deadline=None)
    def test_attach_tracer_records_every_epoch(self, agent, epochs):
        """``attach_tracer`` wraps ``Controller._run_epoch``; with the bound
        kernel (repeated caps included — a monitor never moves them) it
        still records every epoch, and the trace rebuilds the report's
        sums and the final sample exactly."""
        job = Job(
            name="traced",
            config=KernelConfig(intensity=8.0, waiting_fraction=0.5,
                                imbalance=2),
            node_count=3,
        )
        chosen = (MonitorAgent() if agent == "monitor"
                  else FrequencyGovernorAgent(target_freq_ghz=1.8))
        controller = Controller(job, np.array([0.95, 1.0, 1.05]), chosen,
                                model=MODEL, noise_std=0.01, seed=epochs)
        with telemetry.disabled():
            writer = attach_tracer(controller)
            try:
                report = controller.run(max_epochs=epochs, min_epochs=epochs)
            finally:
                writer.close()
        trace = writer.trace
        assert trace.epochs == report.hosts[0].epochs == epochs
        assert float(np.sum(trace.column("epoch_time_s", host=0))) == (
            report.hosts[0].runtime_s
        )
        last = controller.steady_state_sample()
        for host in report.hosts:
            energy = freq = 0.0
            for e, f in zip(trace.column("energy_j", host=host.host_id),
                            trace.column("frequency_ghz", host=host.host_id)):
                energy += e  # epoch order, as the controller folds them
                freq += f
            assert energy == host.energy_j
            assert freq / epochs == host.mean_freq_ghz
        for column, field in (("power_w", "host_power_w"),
                              ("frequency_ghz", "mean_freq_ghz"),
                              ("power_limit_w", "power_limit_w")):
            np.testing.assert_array_equal(
                trace.column(column)[-3:], getattr(last, field)
            )
