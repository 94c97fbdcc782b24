"""Integration: controller + agents + resource manager working together."""

import numpy as np

from repro.manager.queue import JobQueue, JobRequest
from repro.manager.scheduler import Scheduler
from repro.runtime.controller import Controller
from repro.runtime.power_balancer import PowerBalancerAgent
from repro.runtime.power_governor import PowerGovernorAgent
from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import KernelConfig


class TestRaplActuationPath:
    def test_controller_limits_are_programmable(self, execution_model):
        """Every limit the balancer converges to lies in the node's
        RAPL-settable range [floor, TDP]."""
        job = Job(
            name="x",
            config=KernelConfig(intensity=8.0, waiting_fraction=0.5, imbalance=2),
            node_count=4,
        )
        agent = PowerBalancerAgent(job_budget_w=4 * 220.0)
        ctl = Controller(job, np.ones(4), agent, model=execution_model)
        ctl.run(max_epochs=120)
        power = execution_model.power_model
        limits = ctl.final_limits_w()
        assert np.all(limits >= power.min_cap_w)
        assert np.all(limits <= power.tdp_w)


class TestQueueToExecution:
    def test_submission_lifecycle(self, small_cluster, execution_model):
        """Submit -> admit -> run -> complete through the real layers."""
        queue = JobQueue()
        queue.submit(
            JobRequest(
                name="user-job",
                config=KernelConfig(intensity=16.0),
                node_count=8,
                iterations=5,
            )
        )
        request = queue.pending()[0]
        mix = WorkloadMix(name="session", jobs=(request.to_job(),))
        scheduled = Scheduler(small_cluster).allocate(mix)
        queue.admit("user-job")

        from repro.core.registry import create_policy
        from repro.manager.power_manager import PowerManager

        run = PowerManager(execution_model).launch(
            scheduled, create_policy("StaticCaps"), 8 * 200.0
        )
        queue.complete("user-job")
        assert queue.completed == queue.submitted == 1
        assert len(queue) == 0
        assert run.result.mean_elapsed_s > 0


class TestGovernorVersusBalancer:
    def test_balancer_beats_governor_on_imbalanced_job(self, execution_model):
        """Same job budget: the balancer finishes iterations faster than
        the uniform governor when the job is imbalanced — GEOPM's raison
        d'etre and the paper's application-awareness premise."""
        config = KernelConfig(intensity=32.0, waiting_fraction=0.5, imbalance=2)
        job = Job(name="x", config=config, node_count=6)
        eff = np.ones(6)
        budget = 6 * 170.0

        gov = Controller(job, eff, PowerGovernorAgent(budget), model=execution_model)
        gov.run(max_epochs=3, min_epochs=3)
        t_governor = gov.steady_state_sample().epoch_time_s

        bal_agent = PowerBalancerAgent(job_budget_w=budget)
        bal = Controller(job, eff, bal_agent, model=execution_model)
        bal.run(max_epochs=200)
        t_balancer = bal.steady_state_sample().epoch_time_s

        assert t_balancer < t_governor * 0.99

    def test_balancer_no_worse_on_balanced_job(self, execution_model):
        config = KernelConfig(intensity=32.0)
        job = Job(name="x", config=config, node_count=6)
        eff = np.ones(6)
        budget = 6 * 170.0

        gov = Controller(job, eff, PowerGovernorAgent(budget), model=execution_model)
        gov.run(max_epochs=3, min_epochs=3)
        t_governor = gov.steady_state_sample().epoch_time_s

        bal = Controller(job, eff, PowerBalancerAgent(budget), model=execution_model)
        bal.run(max_epochs=100)
        t_balancer = bal.steady_state_sample().epoch_time_s
        assert t_balancer <= t_governor * 1.01
