"""The array energy reduction equals the per-(outcome, term) loop bit for bit.

``MeasurementGroup.expectation_from_counts`` reduces counts through one
gather of a coefficient x sign table and one ordered ``cumsum``.  The loop it
replaced survives here only as the oracle: every estimate must agree with it
to the last bit (compared with ``float.hex``), on Heisenberg, MaxCut and
random Pauli sums, for sampled ``Counts`` and for plain dicts in any key
order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hamiltonian.expectation import expectation_from_group_counts
from repro.hamiltonian.grouping import group_qubitwise_commuting
from repro.hamiltonian.heisenberg import heisenberg_hamiltonian
from repro.hamiltonian.maxcut import maxcut_graph, maxcut_hamiltonian
from repro.hamiltonian.pauli import PauliString, PauliSum
from repro.simulator.result import Counts
from repro.simulator.sampler import sample_distribution

MAX_QUBITS = 6
coefficients = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False).filter(
    lambda value: value != 0.0
)


def reference_group_value(group, counts) -> float:
    """The per-bitstring loop: outcomes outer, terms inner, from 0.0."""
    total_shots = sum(counts.values())
    if total_shots == 0:
        return 0.0
    value = 0.0
    for bitstring, count in counts.items():
        weight = count / total_shots
        for term in group.terms:
            value += weight * term.coefficient * term.eigenvalue_of_bitstring(bitstring)
    return value


def reference_energy(groups, counts_per_group) -> float:
    return float(
        sum(
            reference_group_value(group, counts)
            for group, counts in zip(groups, counts_per_group)
        )
    )


@st.composite
def edges(draw, num_qubits):
    pairs = [(a, b) for a in range(num_qubits) for b in range(a + 1, num_qubits)]
    return draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6, unique=True))


@st.composite
def heisenberg_sums(draw):
    num_qubits = draw(st.integers(min_value=2, max_value=MAX_QUBITS))
    return heisenberg_hamiltonian(
        num_qubits, draw(edges(num_qubits)), draw(coefficients), draw(coefficients)
    )


@st.composite
def maxcut_sums(draw):
    num_qubits = draw(st.integers(min_value=2, max_value=MAX_QUBITS))
    chosen = draw(edges(num_qubits))
    weights = {
        edge: draw(st.floats(min_value=0.1, max_value=3.0)) for edge in chosen
    }
    return maxcut_hamiltonian(maxcut_graph(num_qubits, chosen, weights))


@st.composite
def random_pauli_sums(draw):
    num_qubits = draw(st.integers(min_value=1, max_value=MAX_QUBITS))
    labels = st.text(alphabet="IXYZ", min_size=num_qubits, max_size=num_qubits)
    entries = draw(st.dictionaries(labels, coefficients, min_size=1, max_size=10))
    return PauliSum([PauliString(label, c) for label, c in entries.items()])


hamiltonians = st.one_of(heisenberg_sums(), maxcut_sums(), random_pauli_sums())


@st.composite
def sampled_counts(draw, num_qubits):
    """A sampled ``Counts`` (hit arrays, lazy labels), or a zero-shot one."""
    shots = draw(st.sampled_from([0, 1, 7, 100, 8192]))
    if shots == 0:
        return Counts({}, shots=0)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    probabilities = rng.dirichlet(np.full(1 << num_qubits, 0.3))
    return sample_distribution(probabilities, shots, rng, num_bits=num_qubits)


@st.composite
def dict_counts(draw, num_qubits):
    """A plain dict, zero counts allowed, keys in an arbitrary order."""
    outcomes = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=(1 << num_qubits) - 1),
            st.integers(min_value=0, max_value=5000),
            max_size=1 << num_qubits,
        )
    )
    keys = draw(st.permutations(sorted(outcomes)))
    return {format(key, f"0{num_qubits}b"): outcomes[key] for key in keys}


@st.composite
def energy_cases(draw):
    hamiltonian = draw(hamiltonians)
    groups = group_qubitwise_commuting(hamiltonian)
    n = hamiltonian.num_qubits
    counts = [
        draw(st.one_of(sampled_counts(n), dict_counts(n))) for _ in groups
    ]
    return groups, counts


class TestArrayReductionMatchesLoop:
    @given(case=energy_cases())
    @settings(max_examples=200, deadline=None)
    def test_energy_bit_identical(self, case):
        groups, counts = case
        expected = reference_energy(groups, counts)
        assert expectation_from_group_counts(groups, counts).hex() == expected.hex()

    @given(case=energy_cases())
    @settings(max_examples=100, deadline=None)
    def test_each_group_bit_identical(self, case):
        groups, counts = case
        for group, group_counts in zip(groups, counts):
            got = group.expectation_from_counts(group_counts)
            assert type(got) is float
            assert got.hex() == reference_group_value(group, group_counts).hex()

    @given(hamiltonian=hamiltonians, data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_width_mismatch_raises(self, hamiltonian, data):
        group = group_qubitwise_commuting(hamiltonian)[0]
        width = hamiltonian.num_qubits + data.draw(st.sampled_from([-1, 1]))
        if width < 1:
            width = hamiltonian.num_qubits + 1
        counts = data.draw(st.one_of(sampled_counts(width), dict_counts(width)))
        if sum(counts.values()) == 0:
            # Zero shots carry no outcomes: both paths return 0.0 unchecked.
            assert group.expectation_from_counts(counts) == 0.0
            return
        with pytest.raises(ValueError):
            reference_group_value(group, counts)
        with pytest.raises(ValueError):
            group.expectation_from_counts(counts)
