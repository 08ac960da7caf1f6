"""The noisy device backend: the channel/mixing execution path as a backend.

:class:`NoisyBackend` adapts one :class:`~repro.devices.qpu.QPU` to the
:class:`~repro.backends.base.ExecutionBackend` protocol.  It preserves the
analytic mixing semantics — per-circuit noise is evaluated at that circuit's
position on the device clock and samples are drawn from the device's RNG
stream in batch order, so seeded results are bit-exact with the pre-backend
execution code — while the whole batch underneath runs through the
vectorized mixing pipeline
(:func:`~repro.simulator.mixing.noisy_probabilities_batch`): one compiled
program execution per structure group over the batch's angle matrix (with
per-circuit coherent biases applied by scaling rotation slots), a broadcast
depolarizing mix, and one batched readout-confusion pass.
:meth:`NoisyBackend.run_sweep` is the sweep-aware entry: a parameter-shift
batch executes straight off its ``(points, P)`` shift matrix without binding
a single circuit.  Both entries run through :meth:`QPU.execute_batch`.  The
cloud layer owns one backend per device endpoint.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..devices.qpu import QPU, CircuitFootprint
from ..simulator.result import ExecutionResult
from .base import ParameterBinding, normalize_batch

__all__ = ["NoisyBackend"]


class NoisyBackend:
    """Execution backend running batches through one simulated QPU."""

    def __init__(self, qpu: QPU) -> None:
        self.qpu = qpu
        self.name = qpu.name

    def run(
        self,
        circuits: QuantumCircuit | Sequence[QuantumCircuit],
        parameter_bindings: Sequence[ParameterBinding] | None = None,
        shots: int = 8192,
        seed: int | None = None,
        *,
        footprint: CircuitFootprint | None = None,
        now: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> list[ExecutionResult]:
        """Execute a batch with this device's current (drifting) noise.

        Args:
            circuits: a template or a sequence of circuits.
            parameter_bindings: optional bindings (see :mod:`repro.backends.base`).
            shots: measurement shots per circuit.
            seed: sampling seed for a fresh RNG (ignored when ``rng`` given;
                with neither, the device's own stream is used).
            footprint: structural cost of the transpiled form on this device;
                defaults to the logical footprint of the first circuit.
            now: simulation time the batch starts executing.
            rng: externally-owned RNG (the cloud endpoint's stream).
        """
        bound = normalize_batch(circuits, parameter_bindings)
        if footprint is None:
            footprint = CircuitFootprint.from_circuit(bound[0])
        if rng is None and seed is not None:
            rng = np.random.default_rng(seed)
        return self.qpu.execute_batch(bound, footprint, shots, now=now, rng=rng)

    def run_sweep(
        self,
        templates: Sequence[QuantumCircuit],
        theta_matrix: np.ndarray,
        shots: int = 8192,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        *,
        footprint: CircuitFootprint | None = None,
        now: float = 0.0,
    ) -> list[ExecutionResult]:
        """Execute a zero-rebind parameter sweep under the device's noise.

        The flat result order is point-major with templates inner, matching
        :func:`repro.vqa.gradient.parameter_shift_batch`, and each flat
        position occupies its own device job slot — results (counts, noise
        metadata, durations) are identical to binding the circuits and
        submitting them through :meth:`run`, but no circuit is ever built.
        """
        templates = list(templates)
        if not templates:
            raise ValueError("a sweep needs at least one template")
        if footprint is None:
            footprint = CircuitFootprint.from_circuit(templates[0])
        if rng is None and seed is not None:
            rng = np.random.default_rng(seed)
        return self.qpu.execute_batch(
            templates, footprint, shots, now=now, rng=rng, theta_matrix=theta_matrix
        )
