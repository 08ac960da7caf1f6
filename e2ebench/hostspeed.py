"""Host-speed reference for the benchmark's CPU timings.

On a shared host the CPU time a fixed piece of code takes drifts by up to
about 1.8x over seconds to minutes, because other tenants contend for the
same cores; the drift shows in CPU time as well as in wall time.  The
benchmark therefore times a fixed reference loop (plain Python and small
numpy operations, nothing from ``repro``) right next to the work it measures
and rescales that work's CPU seconds to a nominal host speed, at which one
``reference()`` call takes ``NOMINAL_S`` CPU seconds::

    nominal seconds = measured CPU seconds * NOMINAL_S / mean(reference CPU seconds)

A program change moves the work's CPU seconds and not the reference, so it
still shows in full; host drift moves both and cancels.
"""

from __future__ import annotations

import time

import numpy as np

#: CPU seconds one ``reference()`` call takes at the nominal host speed.
NOMINAL_S = 0.002

_MATRIX = np.linspace(0.0, 1.0, 64).reshape(8, 8)


def reference() -> float:
    """A fixed mix of interpreter work and small numpy calls (~2 ms)."""
    acc = 0.0
    table = {}
    for i in range(500):
        product = _MATRIX @ _MATRIX
        acc += float(product[i & 7, 3])
        table[i % 13] = acc
        acc += sum(k * k for k in range(24)) * 1e-9
    return acc


class SpeedProbe:
    """Reference samples taken next to one piece of measured work."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.process_time()
        reference()
        self.samples.append(time.process_time() - start)

    @property
    def spent(self) -> float:
        """CPU seconds the samples themselves took."""
        return sum(self.samples)

    def nominal(self, cpu_seconds: float) -> float:
        """``cpu_seconds`` rescaled to the nominal host speed."""
        return cpu_seconds * NOMINAL_S * len(self.samples) / self.spent

    def after_each_call(self, cls, name: str):
        """Sample after every call of ``cls.name``; returns an undo callable.

        The wrapper only forwards the call and then runs the reference, so it
        consumes no RNG and leaves the program's results unchanged."""
        original = cls.__dict__[name]

        def sampled(*args, **kwargs):
            result = original(*args, **kwargs)
            self.sample()
            return result

        setattr(cls, name, sampled)
        return lambda: setattr(cls, name, original)
