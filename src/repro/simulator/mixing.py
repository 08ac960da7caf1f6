"""Fast analytic noisy execution: global depolarizing mixing + SPAM.

The EQC experiments replay hundreds of thousands of circuit executions
(Section V reports ~500k on IBMQ), so the large-scale harness cannot afford a
full Kraus trajectory per shot.  This module provides the standard
approximation used for such studies:

1. simulate the circuit ideally (optionally with a *coherent* per-device
   over-rotation bias applied to every rotation angle),
2. mix the ideal outcome distribution with the maximally-mixed (uniform)
   distribution, weighted by the device's probability of error-free execution
   for this transpiled circuit,
3. push the result through per-qubit readout-confusion matrices,
4. sample shots.

Step 2's weight is exactly the quantity the paper's ``PCorrect`` model
(Eq. 2) estimates; the *ground-truth* value used here is computed by the
device model from its private calibration state (including latent cross-talk
and drift the estimator cannot see), which is what gives the Fig. 4
calculated-vs-observed scatter its spread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.gates import Instruction
from ..engine import (
    execute_program,
    marginal_probabilities,
    plan_slot_values,
    slot_values_from_circuits,
)
from ..engine.cache import shared_program_cache
from .channels import readout_confusion_matrix
from .result import Counts
from .sampler import apply_readout_error, apply_readout_error_batch, sample_distribution

__all__ = [
    "MixingNoiseSpec",
    "apply_coherent_bias",
    "execute_with_mixing",
    "noisy_probabilities",
    "noisy_probabilities_batch",
]

_ROTATION_GATES = frozenset({"rx", "ry", "rz", "rzz"})


@dataclass(frozen=True)
class MixingNoiseSpec:
    """Noise description consumed by the analytic mixing executor.

    Attributes:
        success_probability: probability the whole circuit executes without a
            depolarizing fault; the complement mixes the output with the
            uniform distribution.
        readout_p01: per-qubit probability of reading 1 for a true 0.
        readout_p10: per-qubit probability of reading 0 for a true 1.
        coherent_bias: multiplicative over-rotation applied to every rotation
            angle (``theta -> theta * (1 + coherent_bias)``); models the
            device-specific systematic bias that single-device VQA training
            silently absorbs into its learned parameters (paper Section I).
        per_qubit_readout: optional explicit (p01, p10) per measured qubit,
            overriding the scalar values when provided.
    """

    success_probability: float
    readout_p01: float = 0.0
    readout_p10: float = 0.0
    coherent_bias: float = 0.0
    per_qubit_readout: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 0.0 <= self.success_probability <= 1.0:
            raise ValueError("success_probability must be within [0, 1]")
        for name in ("readout_p01", "readout_p10"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")
        for p01, p10 in self.per_qubit_readout:
            if not (0.0 <= p01 <= 1.0 and 0.0 <= p10 <= 1.0):
                raise ValueError("per-qubit readout probabilities outside [0, 1]")


def apply_coherent_bias(circuit: QuantumCircuit, bias: float) -> QuantumCircuit:
    """Return a copy of a bound circuit with over-rotated rotation angles.

    Only rotation gates are affected; discrete gates (H, X, CNOT, ...) are
    assumed to be implemented by calibrated pulses whose systematic error is
    already captured in the depolarizing budget.
    """
    if bias == 0.0:
        return circuit
    if not circuit.is_bound:
        raise ValueError("coherent bias can only be applied to a bound circuit")
    biased = QuantumCircuit(circuit.num_qubits, circuit.name)
    for inst in circuit:
        if inst.name in _ROTATION_GATES:
            params = tuple(float(p) * (1.0 + bias) for p in inst.params)
            biased.append(Instruction(inst.name, inst.qubits, params))
        else:
            biased.append(inst)
    return biased


def noisy_probabilities(
    circuit: QuantumCircuit,
    noise: MixingNoiseSpec,
) -> np.ndarray:
    """The analytic noisy outcome distribution over the measured qubits.

    The sequential reference of :func:`noisy_probabilities_batch`.  The
    circuit's structure compiles once (shared, structure-keyed cache) and
    the coherent over-rotation bias scales the rotation slots of the
    extracted angle vector — the same ``theta * (1 + bias)`` floats
    :func:`apply_coherent_bias` would have bound.
    """
    if not circuit.is_bound:
        raise ValueError("circuit has unbound parameters")
    measured = circuit.measured_qubits or tuple(range(circuit.num_qubits))
    program = shared_program_cache().get_or_compile(circuit)
    thetas = _bias_scaled(
        slot_values_from_circuits(program, [circuit]), program.slot_gates, [noise]
    )
    states = execute_program(program, thetas)
    ideal = marginal_probabilities(states, measured, circuit.num_qubits)[0]

    uniform = np.full_like(ideal, 1.0 / ideal.size)
    mixed = noise.success_probability * ideal + (1.0 - noise.success_probability) * uniform

    confusions = _confusion_matrices(noise, len(measured))
    if confusions:
        mixed = apply_readout_error(mixed, confusions)
    return mixed


def noisy_probabilities_batch(
    circuits: Sequence[QuantumCircuit],
    noises: Sequence[MixingNoiseSpec],
    theta_matrix: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Analytic noisy outcome distributions for a whole device batch at once.

    The single entry of the device mixing pipeline.  ``circuits`` are bound
    circuits (partitioned by gate structure, angles read off the
    instructions), or — with a ``(points, P)`` ``theta_matrix`` — templates
    executed at every row with no circuit bound, in flat point-major order
    with templates inner.  ``noises`` holds one spec per flat position,
    evaluated at its spot on the device clock by the caller.

    Each structure or template runs as **one** compiled program execution
    (coherent biases scale rotation slots row-wise); the depolarizing mix
    and readout confusion then run once per register width.  Every step is
    the per-row arithmetic of :func:`noisy_probabilities`, so rows match it
    to ~1e-16 (only the engine's GEMM batch shape differs) — far below the
    sampler's decision thresholds, which keeps seeded histories bit-exact —
    and a sweep gives the same rows as its circuits bound.

    Returns:
        One measured-register distribution per flat position, in order.
    """
    circuits = list(circuits)
    noises = list(noises)
    if not circuits:
        raise ValueError("a batch needs at least one circuit")
    cache = shared_program_cache()
    if theta_matrix is None:
        for circuit in circuits:
            if not circuit.is_bound:
                raise ValueError("circuit has unbound parameters")
        flat = len(circuits)
        partitions: dict[object, list[int]] = {}
        for index, circuit in enumerate(circuits):
            partitions.setdefault(circuit.structure_key, []).append(index)
        runs = []
        for indices in partitions.values():
            first = circuits[indices[0]]
            program = cache.get_or_compile(first)
            members = [circuits[i] for i in indices]
            runs.append(
                (first, program, slot_values_from_circuits(program, members), indices)
            )
    else:
        theta = np.atleast_2d(np.asarray(theta_matrix, dtype=float))
        count = len(circuits)
        flat = theta.shape[0] * count
        runs = []
        for offset, template in enumerate(circuits):
            program = cache.get_or_compile(template)
            thetas = plan_slot_values(cache.plan_for(template, program), theta)
            runs.append((template, program, thetas, range(offset, flat, count)))
    if len(noises) != flat:
        raise ValueError(
            f"{len(noises)} noise specs do not align with {flat} circuits"
        )

    ideal: list[np.ndarray | None] = [None] * flat
    widths = [0] * flat
    for circuit, program, thetas, rows in runs:
        thetas = _bias_scaled(thetas, program.slot_gates, [noises[i] for i in rows])
        states = execute_program(program, thetas)
        measured = circuit.measured_qubits or tuple(range(circuit.num_qubits))
        probabilities = marginal_probabilities(states, measured, circuit.num_qubits)
        for index, row in zip(rows, probabilities):
            ideal[index] = row
            widths[index] = len(measured)

    out: list[np.ndarray | None] = [None] * flat
    for width in dict.fromkeys(widths):
        rows = [i for i in range(flat) if widths[i] == width]
        mixed = _mix_and_confuse(
            np.stack([ideal[i] for i in rows]), [noises[i] for i in rows], width
        )
        for index, row in zip(rows, mixed):
            out[index] = row
    return out  # type: ignore[return-value]


def _bias_scaled(
    thetas: np.ndarray,
    slot_gates: Sequence[str],
    noises: Sequence[MixingNoiseSpec],
) -> np.ndarray:
    """Apply per-circuit coherent over-rotation biases to a slot-angle matrix.

    Row ``i``'s rotation slots are multiplied by ``(1 + bias_i)``.
    """
    biases = np.array([spec.coherent_bias for spec in noises], dtype=float)
    if not np.any(biases != 0.0):
        return thetas
    rotation = [i for i, g in enumerate(slot_gates) if g in _ROTATION_GATES]
    scaled = np.array(thetas, dtype=float)
    scaled[:, rotation] *= (1.0 + biases)[:, None]
    return scaled


def _mix_and_confuse(
    ideal: np.ndarray,
    noises: Sequence[MixingNoiseSpec],
    num_bits: int,
) -> np.ndarray:
    """Depolarizing mix + readout confusion for a ``(batch, 2**m)`` stack."""
    success = np.array([spec.success_probability for spec in noises], dtype=float)
    uniform = np.full_like(ideal, 1.0 / ideal.shape[1])
    mixed = success[:, None] * ideal + (1.0 - success)[:, None] * uniform

    pairs = [_readout_pairs(spec, num_bits) for spec in noises]
    with_readout = [bool(p) for p in pairs]
    if not any(with_readout):
        return mixed
    if all(with_readout):
        # (bits, batch) error rates -> per-bit (batch, 2, 2) stacks holding
        # exactly the entries ``readout_confusion_matrix`` builds.
        p01, p10 = np.array(pairs, dtype=float).T
        stacks = np.empty((num_bits, len(noises), 2, 2), dtype=float)
        stacks[..., 0, 0] = 1 - p01
        stacks[..., 0, 1] = p10
        stacks[..., 1, 0] = p01
        stacks[..., 1, 1] = 1 - p10
        return apply_readout_error_batch(mixed, list(stacks))
    # Mixed batch (some circuits noiseless on readout): fall back row-wise so
    # the no-confusion rows keep the sequential path's skip-renormalize
    # behaviour exactly.
    return np.stack(
        [
            apply_readout_error(row, _confusion_matrices(spec, num_bits)) if p else row
            for row, spec, p in zip(mixed, noises, pairs)
        ]
    )


def execute_with_mixing(
    circuit: QuantumCircuit,
    noise: MixingNoiseSpec,
    shots: int,
    rng: np.random.Generator,
) -> Counts:
    """Execute a bound circuit under the analytic mixing noise model."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    measured = circuit.measured_qubits or tuple(range(circuit.num_qubits))
    probs = noisy_probabilities(circuit, noise)
    return sample_distribution(probs, shots, rng, num_bits=len(measured))


def _readout_pairs(
    noise: MixingNoiseSpec, num_bits: int
) -> tuple[tuple[float, float], ...]:
    """Per measured bit ``(p01, p10)``; empty when readout is perfect."""
    if noise.per_qubit_readout:
        if len(noise.per_qubit_readout) < num_bits:
            raise ValueError("per_qubit_readout shorter than the measured register")
        return noise.per_qubit_readout[:num_bits]
    if noise.readout_p01 == 0.0 and noise.readout_p10 == 0.0:
        return ()
    return ((noise.readout_p01, noise.readout_p10),) * num_bits


def _confusion_matrices(noise: MixingNoiseSpec, num_bits: int) -> list[np.ndarray]:
    return [
        readout_confusion_matrix(p01, p10)
        for p01, p10 in _readout_pairs(noise, num_bits)
    ]
