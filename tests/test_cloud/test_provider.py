"""Tests for the cloud provider's queueing and execution behaviour."""

import numpy as np
import pytest

from repro.circuit import ghz_state
from repro.cloud.provider import CloudProvider
from repro.cloud.queueing import QueueModel
from repro.devices.catalog import build_qpu
from repro.transpiler import transpile


@pytest.fixture()
def provider():
    return CloudProvider([build_qpu("Belem"), build_qpu("Bogota")], seed=1, shots=256)


@pytest.fixture()
def belem_job_inputs():
    qpu = build_qpu("Belem")
    circuit = ghz_state(4)
    footprint = transpile(circuit, qpu.topology).footprint
    return circuit, footprint


class TestProviderConstruction:
    def test_requires_devices(self):
        with pytest.raises(ValueError):
            CloudProvider([])

    def test_duplicate_devices_rejected(self):
        with pytest.raises(ValueError):
            CloudProvider([build_qpu("Belem"), build_qpu("Belem")])

    def test_device_names(self, provider):
        assert provider.device_names == ("Belem", "Bogota")

    def test_qpu_lookup(self, provider):
        assert provider.qpu("Bogota").name == "Bogota"
        with pytest.raises(KeyError):
            provider.qpu("nope")


class TestSubmission:
    def test_job_lifecycle(self, provider, belem_job_inputs):
        circuit, footprint = belem_job_inputs
        job = provider.submit("Belem", [circuit, circuit], footprint, now=0.0)
        assert job.status.value == "done"
        assert len(job.results) == 2
        assert job.finish_time > job.start_time >= job.submit_time
        assert job.results[0].counts.shots == 256

    def test_empty_job_rejected(self, provider, belem_job_inputs):
        _, footprint = belem_job_inputs
        with pytest.raises(ValueError):
            provider.submit("Belem", [], footprint, now=0.0)

    def test_serial_queue_orders_jobs(self, provider, belem_job_inputs):
        circuit, footprint = belem_job_inputs
        first = provider.submit("Belem", [circuit], footprint, now=0.0)
        second = provider.submit("Belem", [circuit], footprint, now=0.0)
        assert second.start_time >= first.finish_time

    def test_devices_queue_independently(self, provider, belem_job_inputs):
        circuit, _ = belem_job_inputs
        belem_fp = transpile(circuit, build_qpu("Belem").topology).footprint
        bogota_fp = transpile(circuit, build_qpu("Bogota").topology).footprint
        a = provider.submit("Belem", [circuit], belem_fp, now=0.0)
        b = provider.submit("Bogota", [circuit], bogota_fp, now=0.0)
        # Bogota's start is not pushed behind Belem's job
        assert b.start_time < a.finish_time + provider.qpu("Bogota").spec.base_job_seconds * 10

    def test_custom_shots(self, provider, belem_job_inputs):
        circuit, footprint = belem_job_inputs
        job = provider.submit("Belem", [circuit], footprint, now=0.0, shots=64)
        assert job.results[0].counts.shots == 64

    def test_queue_wait_reflected_in_job(self, belem_job_inputs):
        circuit, footprint = belem_job_inputs
        slow_queue = {"Belem": QueueModel(mean_wait_seconds=500.0, sigma=0.1, popularity=0.9)}
        provider = CloudProvider([build_qpu("Belem")], queue_models=slow_queue, seed=0)
        job = provider.submit("Belem", [circuit], footprint, now=0.0)
        assert job.queue_seconds > 100.0

    def test_unknown_device_rejected(self, provider, belem_job_inputs):
        circuit, footprint = belem_job_inputs
        with pytest.raises(KeyError):
            provider.submit("Quito", [circuit], footprint, now=0.0)


class TestUtilization:
    def test_report_tracks_jobs(self, provider, belem_job_inputs):
        circuit, footprint = belem_job_inputs
        for _ in range(3):
            provider.submit("Belem", [circuit], footprint, now=0.0)
        report = provider.utilization_report()
        assert report["Belem"]["jobs_completed"] == 3.0
        assert report["Belem"]["busy_seconds"] > 0
        assert report["Bogota"]["jobs_completed"] == 0.0

    def test_utilization_fraction_bounded(self, provider, belem_job_inputs):
        circuit, footprint = belem_job_inputs
        provider.submit("Belem", [circuit], footprint, now=0.0)
        report = provider.utilization_report(horizon_seconds=1e9)
        assert 0.0 <= report["Belem"]["utilization"] <= 1.0

    def test_imbalance_is_visible(self, provider, belem_job_inputs):
        """Submitting everything to one device shows the utilization imbalance
        the paper motivates EQC with."""
        circuit, footprint = belem_job_inputs
        for _ in range(5):
            provider.submit("Belem", [circuit], footprint, now=0.0)
        report = provider.utilization_report()
        assert report["Belem"]["busy_seconds"] > report["Bogota"]["busy_seconds"]


class TestSweepSubmission:
    """A sweep job and the same job submitted as bound circuits are the same
    job on every submission branch: counts, metadata, durations, finish
    times, failures and the endpoint RNG stream all agree."""

    DEVICES = ("Belem", "Bogota")

    @staticmethod
    def _sweep():
        from repro.vqa import heisenberg_vqe_problem
        from repro.vqa.gradient import shifted_theta_matrix

        estimator = heisenberg_vqe_problem().estimator
        templates = estimator.template_circuits()
        theta = np.random.default_rng(4).uniform(-1.0, 1.0, estimator.num_parameters)
        footprint = transpile(templates[0], build_qpu("Belem").topology).footprint
        return templates, shifted_theta_matrix(theta, [2, 9]), footprint

    def _provider(self, branch):
        from repro.faults import FaultInjector, FaultPlan, OutageWindow
        from repro.sched import CloudScheduler, WorkloadGenerator

        kwargs = {}
        if branch == "faults":
            plan = FaultPlan(
                seed=3,
                outages=(OutageWindow(device="Belem", start=200.0, duration=900.0),),
                transient_failure_rate=0.4,
                result_timeout_rate=0.2,
                result_delay_seconds=120.0,
            )
            kwargs["fault_injector"] = FaultInjector(plan, seed=5)
        elif branch == "scheduled":
            kwargs["scheduler"] = CloudScheduler(
                policy="fifo", workload=WorkloadGenerator(num_tenants=50), seed=2
            )
        qpus = [build_qpu(name) for name in self.DEVICES]
        return CloudProvider(qpus, seed=7, shots=256, **kwargs)

    @staticmethod
    def _outcome(provider, submit):
        try:
            job = submit()
        except Exception as error:  # faults branch: compare the failure too
            return ("failed", type(error).__name__, str(error))
        return (
            [dict(result.counts) for result in job.results],
            [result.metadata for result in job.results],
            [result.duration_seconds for result in job.results],
            [result.queue_seconds for result in job.results],
            job.num_circuits,
            job.start_time,
            job.finish_time,
        )

    @pytest.mark.parametrize("branch", ["statistical", "faults", "scheduled"])
    def test_sweep_equals_bound_submission(self, branch):
        templates, matrix, footprint = self._sweep()
        bound = [t.assign_by_order(row) for row in matrix for t in templates]
        swept_provider = self._provider(branch)
        bound_provider = self._provider(branch)
        for step in range(8):
            device = self.DEVICES[step % 2]
            now = 150.0 * step
            swept = self._outcome(
                swept_provider,
                lambda: swept_provider.submit(
                    device, templates, footprint, now=now, theta_matrix=matrix
                ),
            )
            expected = self._outcome(
                bound_provider,
                lambda: bound_provider.submit(device, bound, footprint, now=now),
            )
            assert swept == expected
            if swept[0] != "failed":
                assert swept[4] == len(bound)
        assert swept_provider.snapshot_state() == bound_provider.snapshot_state()
        for device in self.DEVICES:
            assert (
                swept_provider._endpoint(device).rng.bit_generator.state
                == bound_provider._endpoint(device).rng.bit_generator.state
            )
