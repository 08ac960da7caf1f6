"""The benchmark's three paper workloads.

Every workload trains whole EQC runs through the public ``EQCEnsemble`` /
``EQCConfig`` API on the default sequential execution path (no
``parallel_workers``).

Like the repository's figure experiments (``repro.experiments``), a workload
fixes its problem instance and initial point (the Fig. 6 / Fig. 11 defaults,
the QNN example's dataset) and repeats the run under different seeds:
``build(seed, workdir)`` derives every random input of a run from ``seed`` --
the provider's queue and shot streams, the background tenants' traffic, the
fault plan and its outage window -- so one seed always yields the same run.

The builders import ``repro`` when called, so the orchestrating process can
read this table without importing the program: import cost belongs to each
repetition's measured set-up.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Callable

#: The paper's ASGD step size (Section V), used by all three workloads.
LEARNING_RATE = 0.1


@dataclass
class Built:
    """One workload instance, ready to train."""

    ensemble: object
    initial_parameters: object
    task_queue: object
    #: The problem's exact minimum loss; ``final_loss`` is reported above it
    #: so the metric is positive for every workload.
    loss_floor: float
    run_store: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    epochs: int
    circuits_per_job: int
    build: Callable[[int, str], Built]
    #: Training must end below the initial point's loss (checked per run).
    converges: bool = False


def _vqe_fig6(seed: int, workdir: str) -> Built:
    from repro import (
        DEFAULT_VQE_FLEET, EQCConfig, EQCEnsemble, EnergyObjective,
        heisenberg_vqe_problem,
    )
    from repro.vqa import vqe_task_cycle

    problem = heisenberg_vqe_problem()
    config = EQCConfig(
        device_names=DEFAULT_VQE_FLEET,
        shots=8192,
        learning_rate=LEARNING_RATE,
        weight_bounds=None,
        seed=seed,
        label="vqe-fig6",
    )
    return Built(
        ensemble=EQCEnsemble(EnergyObjective(problem.estimator), config),
        initial_parameters=problem.random_initial_parameters(seed=7),
        task_queue=vqe_task_cycle(problem.num_parameters),
        loss_floor=problem.ground_energy,
    )


def _qaoa_contended(seed: int, workdir: str) -> Built:
    from repro import (
        DEFAULT_QAOA_FLEET, EQCConfig, EQCEnsemble, EnergyObjective,
        ring_maxcut_qaoa_problem,
    )
    from repro.vqa import vqe_task_cycle

    problem = ring_maxcut_qaoa_problem()
    config = EQCConfig(
        device_names=DEFAULT_QAOA_FLEET,
        shots=8192,
        learning_rate=LEARNING_RATE,
        weight_bounds=None,
        seed=seed,
        scheduling_policy="backpressure",
        background_tenants=1000,
        tenant_jobs_per_hour=1.0,
        label="qaoa-contended",
    )
    return Built(
        ensemble=EQCEnsemble(EnergyObjective(problem.estimator), config),
        initial_parameters=problem.random_initial_parameters(seed=11),
        task_queue=vqe_task_cycle(problem.num_parameters),
        loss_floor=problem.ground_energy,
    )


def _qnn_chaos_durable(seed: int, workdir: str) -> Built:
    import numpy as np
    from repro import (
        DEFAULT_VQE_FLEET, EQCConfig, EQCEnsemble, FaultPlan, OutageWindow,
        QnnObjective, make_synthetic_dataset,
    )
    from repro.vqa import QNNProblem, qnn_task_cycle

    rng = np.random.default_rng(seed)
    dataset = make_synthetic_dataset(num_samples=16, feature_dimension=4, seed=3)
    problem = QNNProblem("qnn-chaos-durable", dataset, num_qubits=4, num_layers=1)
    outage = OutageWindow(
        device=DEFAULT_VQE_FLEET[int(rng.integers(len(DEFAULT_VQE_FLEET)))],
        start=float(rng.uniform(900.0, 5400.0)),
        duration=float(rng.uniform(1800.0, 3600.0)),
    )
    plan = FaultPlan(seed=seed, outages=(outage,), transient_failure_rate=0.1)
    store = tempfile.mkdtemp(prefix="store-", dir=workdir)
    config = EQCConfig(
        device_names=DEFAULT_VQE_FLEET,
        shots=2048,
        learning_rate=LEARNING_RATE,
        seed=seed,
        fault_plan=plan,
        checkpoint_every=1,
        run_store=store,
        label="qnn-chaos-durable",
    )
    return Built(
        ensemble=EQCEnsemble(QnnObjective(problem), config),
        initial_parameters=problem.random_initial_parameters(seed=3),
        task_queue=qnn_task_cycle(problem.num_parameters, len(dataset)),
        loss_floor=0.0,
        run_store=store,
    )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "vqe-fig6", epochs=100, circuits_per_job=6, build=_vqe_fig6,
            converges=True,
        ),
        Workload(
            "qaoa-contended", epochs=20, circuits_per_job=2, build=_qaoa_contended
        ),
        Workload(
            "qnn-chaos-durable", epochs=20, circuits_per_job=3,
            build=_qnn_chaos_durable,
        ),
    )
}
