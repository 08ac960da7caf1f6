"""Grouping Pauli terms into simultaneously-measurable sets.

Estimating ``<H>`` on hardware requires sampling each Pauli term in its own
measurement basis.  Terms that commute *qubit-wise* (on every qubit they
either agree or at least one is the identity) can share a single basis-rotated
circuit, which is how the reproduction keeps the per-evaluation circuit count
at three for the Heisenberg Hamiltonian (an X-basis, a Y-basis and a Z-basis
group) and at one for the diagonal MaxCut Hamiltonian.

This mirrors the paper's Section III-A observation that a decomposed
Hamiltonian is a linear sum of Pauli strings which can be evaluated (and
parallelized) independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..simulator.result import outcome_arrays
from .pauli import PauliString, PauliSum

__all__ = [
    "MeasurementGroup",
    "group_qubitwise_commuting",
    "group_sign_matrix",
    "measurement_basis_circuit",
]


@dataclass(frozen=True)
class MeasurementGroup:
    """A set of qubit-wise commuting terms and their shared measurement basis.

    Attributes:
        terms: the Pauli strings in the group.
        basis: one character per qubit, ``I`` where every term is trivial,
            otherwise the shared Pauli axis measured on that qubit.
    """

    terms: tuple[PauliString, ...]
    basis: str

    @property
    def num_qubits(self) -> int:
        return len(self.basis)

    @cached_property
    def energy_table(self) -> np.ndarray:
        """``(2**n, terms)`` table: entry ``(i, t)`` is term ``t``'s
        coefficient times its eigenvalue on measured outcome ``i``."""
        coefficients = np.array([term.coefficient for term in self.terms])
        return np.ascontiguousarray((coefficients[:, None] * group_sign_matrix(self)).T)

    def expectation_from_counts(self, counts: Mapping[str, int]) -> float:
        """Estimate the group's contribution to ``<H>`` from measured counts.

        ``counts`` maps bitstrings (measured after the basis rotation) to
        frequencies; a sampled :class:`~repro.simulator.result.Counts` is
        reduced straight from its hit arrays, without string labels.

        The ``(hits, terms)`` products ``(count / total * coefficient) *
        eigenvalue`` come from one gather of :attr:`energy_table` (a ±1 sign
        commutes exactly with rounding) and one ``cumsum`` from ``0.0`` adds
        them outcome-major, so the result is bit for bit the per-outcome,
        per-term loop.

        Raises:
            ValueError: when the outcomes are not ``num_qubits`` wide.
        """
        indices, values, num_bits = outcome_arrays(counts)
        total = int(values.sum())
        if total == 0:
            return 0.0
        if num_bits != self.num_qubits:
            raise ValueError("bitstring width does not match the Pauli width")
        products = (values / total)[:, None] * self.energy_table[indices]
        return float(np.cumsum(np.concatenate(([0.0], products.ravel())))[-1])


def group_sign_matrix(group: MeasurementGroup) -> np.ndarray:
    """The ``(terms, 2**n)`` eigenvalue matrix of one measurement group.

    Entry ``(t, i)`` is the ±1 eigenvalue of the group's ``t``-th term
    (after its basis rotation) on basis state ``i`` — the parity of the
    measured bits on the term's support.  Against a stack of measured
    distributions ``probs`` of shape ``(points, 2**n)``, per-term
    expectations are one matrix product ``probs @ sign.T`` instead of the
    per-qubit axis-move loop of ``Statevector.expectation_pauli``.
    """
    n = group.num_qubits
    index = np.arange(1 << n)
    signs = np.empty((len(group.terms), 1 << n), dtype=float)
    for row, term in enumerate(group.terms):
        parity = np.zeros(index.shape, dtype=np.intp)
        for qubit in term.support:
            parity ^= (index >> (n - 1 - qubit)) & 1
        signs[row] = 1.0 - 2.0 * parity
    return signs


def group_qubitwise_commuting(hamiltonian: PauliSum) -> list[MeasurementGroup]:
    """Greedy qubit-wise commuting grouping.

    Terms are placed into the first existing group whose basis is compatible;
    the group basis is widened as terms join.  The greedy order is the term
    order of the Hamiltonian, which for the Hamiltonians in this library
    (Heisenberg, MaxCut) produces the optimal grouping.
    """
    groups: list[list[PauliString]] = []
    bases: list[list[str]] = []

    for term in hamiltonian:
        placed = False
        for index, basis in enumerate(bases):
            if _compatible(term, basis):
                groups[index].append(term)
                _merge_basis(term, basis)
                placed = True
                break
        if not placed:
            basis = ["I"] * hamiltonian.num_qubits
            _merge_basis(term, basis)
            groups.append([term])
            bases.append(basis)

    return [
        MeasurementGroup(terms=tuple(terms), basis="".join(basis))
        for terms, basis in zip(groups, bases)
    ]


def measurement_basis_circuit(basis: str) -> QuantumCircuit:
    """The basis-rotation + measurement tail for one measurement group.

    ``X`` positions get a Hadamard, ``Y`` positions an S-dagger followed by a
    Hadamard, ``Z``/``I`` positions nothing; every qubit is then measured.
    Compose this after the (measurement-free) ansatz.
    """
    num_qubits = len(basis)
    tail = QuantumCircuit(num_qubits, name=f"measure_{basis}")
    for qubit, axis in enumerate(basis.upper()):
        if axis == "X":
            tail.h(qubit)
        elif axis == "Y":
            tail.sdg(qubit)
            tail.h(qubit)
        elif axis not in ("Z", "I"):
            raise ValueError(f"invalid basis character {axis!r}")
    tail.measure_all()
    return tail


def _compatible(term: PauliString, basis: list[str]) -> bool:
    for qubit, char in enumerate(term.label):
        if char == "I":
            continue
        if basis[qubit] != "I" and basis[qubit] != char:
            return False
    return True


def _merge_basis(term: PauliString, basis: list[str]) -> None:
    for qubit, char in enumerate(term.label):
        if char != "I":
            basis[qubit] = char
