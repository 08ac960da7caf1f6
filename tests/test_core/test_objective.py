"""Tests for the gradient objectives (EnergyObjective / QnnObjective)."""

import numpy as np
import pytest

from repro.core.objective import EnergyObjective, GradientJobSpec, QnnObjective
from repro.simulator.sampler import sample_circuit_ideal
from repro.vqa.gradient import exact_parameter_shift_gradient
from repro.vqa.qnn import QNNProblem, make_synthetic_dataset
from repro.vqa.tasks import GradientTask


def _bound(job):
    """The job's circuits bound one by one, in execution order."""
    return [t.assign_by_order(row) for row in job.theta_matrix for t in job.templates]


class TestGradientJobSpec:
    def test_alignment_enforced(self):
        from repro.circuit import QuantumCircuit

        qc = QuantumCircuit(1).h(0)
        with pytest.raises(ValueError):
            GradientJobSpec(templates=(qc,), template_keys=(), theta_matrix=[[0.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GradientJobSpec(templates=(), template_keys=(), theta_matrix=[[0.0]])

    def test_empty_theta_matrix_rejected(self):
        from repro.circuit import QuantumCircuit

        qc = QuantumCircuit(1).h(0)
        with pytest.raises(ValueError):
            GradientJobSpec(
                templates=(qc,), template_keys=("k",), theta_matrix=np.empty((0, 1))
            )

    def test_num_circuits_is_points_times_templates(self, vqe_problem):
        job = EnergyObjective(vqe_problem.estimator).build_job(
            GradientTask(task_id=0, parameter_index=1), [0.1] * 16
        )
        assert job.num_circuits == job.theta_matrix.shape[0] * len(job.templates)
        assert len(_bound(job)) == job.num_circuits

    def test_theta_matrix_is_read_only(self, vqe_problem):
        job = EnergyObjective(vqe_problem.estimator).build_job(
            GradientTask(task_id=0, parameter_index=1), [0.1] * 16
        )
        with pytest.raises(ValueError):
            job.theta_matrix[0, 0] = 1.0


class TestEnergyObjective:
    def test_build_job_shapes(self, vqe_problem):
        objective = EnergyObjective(vqe_problem.estimator)
        task = GradientTask(task_id=0, parameter_index=3)
        job = objective.build_job(task, [0.1] * 16)
        # forward + backward points over each of the 3 measurement groups
        assert job.theta_matrix.shape == (2, 16)
        assert job.num_circuits == 6
        assert all(circuit.is_bound for circuit in _bound(job))
        assert len(set(job.template_keys)) == 3

    def test_gradient_from_ideal_counts_matches_exact(self, vqe_problem, rng):
        objective = EnergyObjective(vqe_problem.estimator)
        theta = np.linspace(-0.4, 0.6, 16)
        task = GradientTask(task_id=0, parameter_index=7)
        job = objective.build_job(task, theta)
        counts = [sample_circuit_ideal(c, 40000, rng) for c in _bound(job)]
        estimated = objective.gradient_from_counts(task, counts)
        exact = exact_parameter_shift_gradient(vqe_problem.estimator, theta, 7)
        assert estimated == pytest.approx(exact, abs=0.08)

    def test_gradient_count_mismatch_rejected(self, vqe_problem):
        objective = EnergyObjective(vqe_problem.estimator)
        task = GradientTask(task_id=0, parameter_index=0)
        with pytest.raises(ValueError):
            objective.gradient_from_counts(task, [])

    def test_exact_loss_delegates_to_estimator(self, vqe_problem):
        objective = EnergyObjective(vqe_problem.estimator)
        theta = [0.0] * 16
        assert objective.exact_loss(theta) == pytest.approx(vqe_problem.energy(theta))

    def test_num_parameters(self, qaoa_problem):
        assert EnergyObjective(qaoa_problem.estimator).num_parameters == 2


class TestQnnObjective:
    @pytest.fixture
    def qnn(self):
        return QNNProblem("qnn", make_synthetic_dataset(4, seed=3), num_qubits=4)

    def test_build_job_includes_centre_forward_backward(self, qnn):
        objective = QnnObjective(qnn)
        task = GradientTask(task_id=0, parameter_index=1, data_index=2)
        job = objective.build_job(task, [0.1] * qnn.num_parameters)
        groups = qnn.estimator_for(2).num_groups
        assert job.num_circuits == 3 * groups
        theta = np.full(qnn.num_parameters, 0.1)
        assert np.array_equal(job.theta_matrix[0], theta)
        assert job.theta_matrix[1, 1] > 0.1 > job.theta_matrix[2, 1]

    def test_missing_data_index_rejected(self, qnn):
        objective = QnnObjective(qnn)
        task = GradientTask(task_id=0, parameter_index=0)
        with pytest.raises(ValueError):
            objective.build_job(task, [0.1] * qnn.num_parameters)

    def test_gradient_matches_exact_chain_rule(self, qnn, rng):
        objective = QnnObjective(qnn)
        theta = qnn.random_initial_parameters()
        task = GradientTask(task_id=0, parameter_index=2, data_index=1)
        job = objective.build_job(task, theta)
        counts = [sample_circuit_ideal(c, 30000, rng) for c in _bound(job)]
        estimated = objective.gradient_from_counts(task, counts)
        exact = qnn.sample_gradient(theta, 2, 1)
        assert estimated == pytest.approx(exact, abs=0.1)

    def test_exact_loss_is_dataset_loss(self, qnn):
        objective = QnnObjective(qnn)
        theta = qnn.random_initial_parameters()
        assert objective.exact_loss(theta) == pytest.approx(qnn.dataset_loss(theta))
