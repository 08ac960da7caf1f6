"""Multiprocess ensemble execution: spawn-safety and bit-exactness.

Two pillars keep ``parallel_workers`` honest:

* every payload that crosses the process boundary (QPU specs, compiled
  programs, program caches, circuits with symbolic parameters, the worker
  context itself) must survive a pickle round-trip unchanged, and
* a parallel training run must reproduce the sequential run *bit for bit* —
  same losses, parameters, simulated timeline, weights, and utilization —
  because workers replay each device's seeded streams exactly.
"""

import pickle

import numpy as np
import pytest

from repro.circuit import hardware_efficient_ansatz
from repro.circuit.parameters import Parameter
from repro.core import EQCConfig, EQCEnsemble
from repro.core.objective import EnergyObjective
from repro.devices import build_qpu
from repro.engine import ProgramCache, compile_circuit, execute_program
from repro.execution import ParallelEnsembleExecutor, WorkerContext
from repro.hamiltonian.expectation import EnergyEstimator
from repro.simulator.statevector import simulate_statevector


class TestSpawnSafety:
    """Pickle round-trips for everything shipped to worker processes."""

    def test_qpu_round_trip(self):
        qpu = build_qpu("Belem")
        # Advance the drift stream and warm the memo caches so the round
        # trip has real state to preserve (and caches to drop).
        qpu.reported_calibration(3600.0)
        qpu.job_duration_seconds(7200.0)
        assert qpu._reported_cache or qpu._cycle_stats

        clone = pickle.loads(pickle.dumps(qpu))
        assert clone.spec == qpu.spec
        assert clone.name == qpu.name
        # Memo caches are dropped (they rebuild identically on demand)...
        assert clone._reported_cache == {}
        assert clone._cycle_stats == {}
        # ...but the RNG stream transfers exactly, so both devices produce
        # the same calibrations and durations from here on.
        assert clone._rng.bit_generator.state == qpu._rng.bit_generator.state
        t = 3 * 86400.0
        assert clone.job_duration_seconds(t) == qpu.job_duration_seconds(t)
        assert clone.reported_calibration(t) == qpu.reported_calibration(t)

    def test_gate_program_round_trip(self):
        circuit = hardware_efficient_ansatz(4)
        program = compile_circuit(circuit)
        clone = pickle.loads(pickle.dumps(program))
        assert clone.num_qubits == program.num_qubits
        assert clone.num_slots == program.num_slots
        thetas = np.random.default_rng(5).uniform(
            -np.pi, np.pi, (3, program.num_slots)
        )
        assert np.array_equal(
            execute_program(program, thetas), execute_program(clone, thetas)
        )

    def test_program_cache_round_trip(self):
        cache = ProgramCache()
        circuit = hardware_efficient_ansatz(3)
        program = cache.get_or_compile(circuit)
        cache.plan_for(circuit, program)  # populate the identity-keyed plans
        clone = pickle.loads(pickle.dumps(cache))
        assert len(clone) == len(cache) == 1
        assert (clone.hits, clone.misses) == (cache.hits, cache.misses)
        # Compiled entries transferred: same structure hits the cache.
        before = clone.hits
        clone.get_or_compile(hardware_efficient_ansatz(3))
        assert clone.hits == before + 1
        # Plans were identity-keyed and re-memoize from scratch.
        assert clone.plan_for(circuit) is not None

    def test_parameterized_circuit_round_trip(self):
        circuit = hardware_efficient_ansatz(3)
        clone = pickle.loads(pickle.dumps(circuit))
        names = [p.name for p in circuit.ordered_parameters()]
        assert [p.name for p in clone.ordered_parameters()] == names
        values = np.random.default_rng(2).uniform(-1, 1, len(names))
        state = simulate_statevector(
            circuit, dict(zip(circuit.ordered_parameters(), values))
        )
        clone_state = simulate_statevector(
            clone, dict(zip(clone.ordered_parameters(), values))
        )
        assert np.array_equal(state.data, clone_state.data)

    def test_parameter_identity_survives_within_one_pickle(self):
        p = Parameter("theta")
        a, b = pickle.loads(pickle.dumps((p, p)))
        assert a is b

    def test_worker_context_round_trip(self, vqe_problem):
        estimator = EnergyEstimator(vqe_problem.ansatz, vqe_problem.hamiltonian)
        context = WorkerContext(
            objective=EnergyObjective(estimator),
            qpu_specs=(build_qpu("x2").spec, build_qpu("Belem").spec),
            client_names=("client_x2", "client_Belem"),
            queue_models=None,
            seed=3,
            shots=128,
            worker_id=0,
        )
        clone = pickle.loads(pickle.dumps(context))
        assert clone.qpu_specs == context.qpu_specs
        assert clone.client_names == context.client_names
        assert clone.shots == 128


class TestCircuitsPerJob:
    """The timing preview relies on ``circuits_per_job`` matching reality."""

    def test_energy_objective(self, vqe_problem):
        from repro.vqa.tasks import GradientTask

        estimator = EnergyEstimator(vqe_problem.ansatz, vqe_problem.hamiltonian)
        objective = EnergyObjective(estimator)
        task = GradientTask(task_id=0, parameter_index=1)
        job = objective.build_job(task, np.zeros(estimator.num_parameters))
        assert objective.circuits_per_job(task) == job.num_circuits

    def test_qnn_objective(self):
        from repro.core.objective import QnnObjective
        from repro.vqa.qnn import QNNProblem, make_synthetic_dataset
        from repro.vqa.tasks import GradientTask

        problem = QNNProblem("qnn", make_synthetic_dataset(4, seed=3), num_qubits=4)
        objective = QnnObjective(problem)
        task = GradientTask(task_id=0, parameter_index=0, data_index=2)
        job = objective.build_job(task, [0.1] * problem.num_parameters)
        assert objective.circuits_per_job(task) == job.num_circuits


def _train(problem, *, workers, start_method=None, epochs=2):
    estimator = EnergyEstimator(problem.ansatz, problem.hamiltonian)
    config = EQCConfig(
        device_names=("x2", "Belem", "Bogota"),
        shots=256,
        seed=1,
        parallel_workers=workers,
        parallel_start_method=start_method,
    )
    ensemble = EQCEnsemble.for_estimator(estimator, config)
    theta0 = np.zeros(estimator.num_parameters)
    return ensemble.train(theta0, num_epochs=epochs)


def _assert_histories_identical(reference, candidate):
    assert len(candidate.records) == len(reference.records)
    for expected, actual in zip(reference.records, candidate.records):
        assert actual.loss == expected.loss
        assert np.array_equal(actual.parameters, expected.parameters)
        assert actual.sim_time_hours == expected.sim_time_hours
        assert actual.weights == expected.weights
    assert candidate.total_updates == reference.total_updates
    assert candidate.total_jobs == reference.total_jobs
    assert candidate.metadata["utilization"] == reference.metadata["utilization"]
    assert (
        candidate.metadata["circuits_executed"]
        == reference.metadata["circuits_executed"]
    )
    assert candidate.metadata["mean_staleness"] == reference.metadata["mean_staleness"]


class TestParallelBitExactness:
    @pytest.fixture(scope="class")
    def sequential_history(self, vqe_problem):
        return _train(vqe_problem, workers=0)

    def test_two_workers_match_sequential(self, vqe_problem, sequential_history):
        parallel = _train(vqe_problem, workers=2)
        _assert_histories_identical(sequential_history, parallel)
        assert parallel.metadata["parallel_workers"] == 2

    def test_spawn_start_method_matches_sequential(
        self, vqe_problem, sequential_history
    ):
        parallel = _train(vqe_problem, workers=2, start_method="spawn")
        _assert_histories_identical(sequential_history, parallel)

    def test_single_worker_pool_matches_sequential(
        self, vqe_problem, sequential_history
    ):
        # parallel_workers=2 with more workers than devices would also clamp;
        # here every device lands in one worker process.
        estimator = EnergyEstimator(vqe_problem.ansatz, vqe_problem.hamiltonian)
        config = EQCConfig(
            device_names=("x2", "Belem", "Bogota"),
            shots=256,
            seed=1,
            parallel_workers=3,
        )
        ensemble = EQCEnsemble.for_estimator(estimator, config)
        history = ensemble.train(
            np.zeros(estimator.num_parameters), num_epochs=2
        )
        _assert_histories_identical(sequential_history, history)


class TestExecutorMechanics:
    def test_worker_count_clamped_to_fleet(self, vqe_problem):
        estimator = EnergyEstimator(vqe_problem.ansatz, vqe_problem.hamiltonian)
        qpus = [build_qpu("x2"), build_qpu("Belem")]
        with ParallelEnsembleExecutor(
            EnergyObjective(estimator), qpus, num_workers=8, shots=64, seed=0
        ) as executor:
            assert executor.num_workers == 2
            report = executor.utilization_report()
        assert list(report.keys()) == ["x2", "Belem"]

    def test_unknown_device_rejected(self, vqe_problem):
        estimator = EnergyEstimator(vqe_problem.ansatz, vqe_problem.hamiltonian)
        with ParallelEnsembleExecutor(
            EnergyObjective(estimator),
            [build_qpu("x2")],
            num_workers=1,
            shots=64,
        ) as executor:
            with pytest.raises(KeyError):
                executor.submit("nope", None, np.zeros(1), 0.0, 0)

    def test_shutdown_is_idempotent(self, vqe_problem):
        estimator = EnergyEstimator(vqe_problem.ansatz, vqe_problem.hamiltonian)
        executor = ParallelEnsembleExecutor(
            EnergyObjective(estimator), [build_qpu("x2")], num_workers=1, shots=64
        )
        executor.shutdown()
        executor.shutdown()
        with pytest.raises(RuntimeError):
            executor.collect(0)


class TestConfigValidation:
    def test_tenant_rate_must_be_positive(self):
        with pytest.raises(ValueError, match="tenant_jobs_per_hour"):
            EQCConfig(tenant_jobs_per_hour=0.0)
        with pytest.raises(ValueError, match="tenant_jobs_per_hour"):
            EQCConfig(tenant_jobs_per_hour=-2.0)

    def test_parallel_workers_must_be_non_negative(self):
        with pytest.raises(ValueError, match="parallel_workers"):
            EQCConfig(parallel_workers=-1)

    def test_start_method_validated(self):
        with pytest.raises(ValueError, match="parallel_start_method"):
            EQCConfig(parallel_start_method="threads")
        EQCConfig(parallel_start_method="spawn")  # accepted

    def test_parallel_rejected_with_scheduler(self):
        with pytest.raises(ValueError, match="scheduler"):
            EQCConfig(parallel_workers=2, background_tenants=4)
        # Sequential execution with the scheduler stays allowed.
        EQCConfig(parallel_workers=1, background_tenants=4)

    def test_record_every_validated_in_train(self, vqe_problem):
        estimator = EnergyEstimator(vqe_problem.ansatz, vqe_problem.hamiltonian)
        ensemble = EQCEnsemble.for_estimator(
            estimator,
            EQCConfig(device_names=("x2",), shots=64, seed=0),
        )
        with pytest.raises(ValueError, match="record_every"):
            ensemble.train(
                np.zeros(estimator.num_parameters), num_epochs=1, record_every=0
            )
