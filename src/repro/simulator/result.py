"""Execution results: measurement counts and metadata."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

__all__ = ["Counts", "ExecutionResult", "outcome_arrays"]


class Counts(Mapping[str, int]):
    """Measurement outcome histogram keyed by bitstring.

    Bitstrings follow the library convention: character ``i`` is the outcome
    of measured qubit ``i`` (qubit 0 leftmost).

    Histograms drawn by the samplers hold the multinomial hit indices and
    hit counts as arrays (see :func:`outcome_arrays`); the string labels of
    the Mapping API are built from them on first use only.
    """

    def __init__(self, data: Mapping[str, int], shots: int | None = None) -> None:
        clean: dict[str, int] = {}
        for key, value in data.items():
            if value < 0:
                raise ValueError(f"negative count for outcome {key!r}")
            if value:
                clean[str(key)] = int(value)
        widths = {len(k) for k in clean}
        if len(widths) > 1:
            raise ValueError("all bitstrings in a Counts object must share one width")
        self._labels: dict[str, int] | None = clean
        self._hits: tuple[np.ndarray, np.ndarray, int] | None = None
        self._shots = int(shots) if shots is not None else sum(clean.values())
        if self._shots < sum(clean.values()):
            raise ValueError("shots is smaller than the sum of counts")

    @classmethod
    def _from_hits(
        cls, indices: np.ndarray, values: np.ndarray, num_bits: int, shots: int
    ) -> "Counts":
        """Trusted constructor for the multinomial samplers.

        ``indices`` are the hit outcomes in ascending order and ``values``
        their positive counts; callers guarantee both, so the sampling hot
        path skips validation and label formatting.
        """
        counts = cls.__new__(cls)
        counts._labels = None
        counts._hits = (indices, values, num_bits)
        counts._shots = shots
        return counts

    @property
    def _data(self) -> dict[str, int]:
        """The label-keyed histogram, built from the hit arrays on first use."""
        if self._labels is None:
            indices, values, num_bits = self._hits
            self._labels = {
                format(index, f"0{num_bits}b"): value
                for index, value in zip(indices.tolist(), values.tolist())
            }
        return self._labels

    # Mapping protocol -----------------------------------------------------
    def __getitem__(self, key: str) -> int:
        return self._data[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return f"Counts({dict(sorted(self._data.items()))}, shots={self._shots})"

    # ----------------------------------------------------------------------
    @property
    def shots(self) -> int:
        """Total number of shots taken (may exceed the sum if some were lost)."""
        return self._shots

    @property
    def num_bits(self) -> int:
        """Width of the measured register (0 for an empty histogram)."""
        if self._hits is not None:
            return self._hits[2] if len(self._hits[0]) else 0
        return len(next(iter(self._labels))) if self._labels else 0

    def probability(self, bitstring: str) -> float:
        """Empirical probability of one outcome."""
        if self._shots == 0:
            return 0.0
        return self._data.get(bitstring, 0) / self._shots

    def probabilities(self) -> dict[str, float]:
        """Empirical probabilities of every observed outcome."""
        if self._shots == 0:
            return {}
        return {k: v / self._shots for k, v in self._data.items()}

    def to_array(self) -> np.ndarray:
        """Dense probability vector of length ``2**num_bits``."""
        indices, values, n = outcome_arrays(self)
        vec = np.zeros(1 << n if n else 1, dtype=float)
        vec[indices] = values
        total = vec.sum()
        return vec / total if total > 0 else vec

    def most_frequent(self) -> str:
        """The most frequent outcome (ties broken lexicographically)."""
        if not self._data:
            raise ValueError("empty Counts has no most frequent outcome")
        return min(self._data, key=lambda k: (-self._data[k], k))

    def merge(self, other: "Counts") -> "Counts":
        """Combine two histograms of the same width."""
        if self._data and other._data and self.num_bits != other.num_bits:
            raise ValueError("cannot merge Counts of different widths")
        merged = dict(self._data)
        for key, value in other._data.items():
            merged[key] = merged.get(key, 0) + value
        return Counts(merged, shots=self._shots + other._shots)


def outcome_arrays(counts: Mapping[str, int]) -> tuple[np.ndarray, np.ndarray, int]:
    """``(indices, counts, num_bits)`` of any bitstring-keyed histogram.

    Entries follow the mapping's iteration order (zero counts included);
    ``num_bits`` is 0 for an empty mapping.

    Raises:
        ValueError: when the bitstrings do not share one width.
    """
    hits = getattr(counts, "_hits", None)
    if hits is not None:
        indices, values, num_bits = hits
        return indices, values, num_bits if len(indices) else 0
    keys = list(counts)
    num_bits = len(keys[0]) if keys else 0
    if any(len(key) != num_bits for key in keys):
        raise ValueError("all bitstrings of a histogram must share one width")
    indices = np.array([int(key, 2) for key in keys], dtype=np.intp)
    values = np.array([counts[key] for key in keys], dtype=np.int64)
    return indices, values, num_bits


@dataclass
class ExecutionResult:
    """The full result of executing one circuit on a backend.

    Attributes:
        counts: measurement histogram.
        shots: number of shots requested.
        backend_name: device (or simulator) the job ran on.
        duration_seconds: simulated wall-clock execution time (queue excluded).
        queue_seconds: simulated time spent waiting in the device queue.
        metadata: free-form extras (calibration age, success probability, ...).
    """

    counts: Counts
    shots: int
    backend_name: str = "ideal"
    duration_seconds: float = 0.0
    queue_seconds: float = 0.0
    metadata: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Queueing plus execution time."""
        return self.duration_seconds + self.queue_seconds
