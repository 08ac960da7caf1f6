"""Outside-in layer tracing for the end-to-end benchmark.

The tracer times the program's public entry points from outside: it rebinds
each one to a wrapper that records a span (layer, start, end, parent) in
memory and otherwise only forwards the call, so a traced run consumes no RNG
and produces the same history as an untraced one.  After the run it derives
per-layer self time (a span's duration minus the time its child spans cover)
and writes the spans as Chrome trace-event JSON.

Module-level functions are rebound in every ``repro`` module that holds a
reference to them, because that is where their callers look them up (for
example ``repro.devices.qpu.noisy_probabilities_batch``, not only
``repro.simulator.mixing``).  The scheduler's per-event callbacks are left
alone: the kernel is reported as one layer plus its public counters.
"""

from __future__ import annotations

import functools
import os
import sys
import time

#: Layer -> name of its self-time metric; its call count is ``<layer>.calls``.
LAYER_METRICS = {
    "core.ensemble": "core.ensemble.self_s",
    "core.master": "core.master.self_s",
    "core.client": "core.client.self_s",
    "core.weighting.pcorrect": "core.weighting.pcorrect_s",
    "circuit.bind": "circuit.bind_s",
    "hamiltonian.counts_energy": "hamiltonian.counts_energy_s",
    "hamiltonian.exact_loss": "hamiltonian.exact_loss_s",
    "transpiler.transpile": "transpiler.transpile_s",
    "cloud.provider": "cloud.provider.self_s",
    "devices.qpu": "devices.qpu_s",
    "simulator.mixing": "simulator.mixing_s",
    "simulator.sampler": "simulator.sampler_s",
    "engine.execute": "engine.execute_s",
    "vqa.optimizer.update": "vqa.optimizer.update_s",
    "sched.kernel": "sched.kernel_s",
    "persist.write": "persist.write_s",
    "persist.read": "persist.read_s",
}

#: The training loop itself; every other layer is work it delegates.
ORCHESTRATION = ("core.ensemble", "core.master")


class LayerTracer:
    """Records nested spans around rebound entry points."""

    def __init__(self) -> None:
        #: One ``[layer, start_ns, end_ns, parent_index]`` per call.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.engine_points = 0
        self.fsyncs = 0
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, fn, on_result=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def wrap_method(self, layer: str, cls, name: str) -> None:
        self._set(cls, name, self._wrap(layer, cls.__dict__[name]))

    def wrap_function(self, layer: str, fn, on_result=None) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module that references it."""
        traced = self._wrap(layer, fn, on_result)
        rebound = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attribute, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attribute, traced)
                    rebound += 1
        if rebound == 0:
            raise RuntimeError(f"no repro module references {fn.__qualname__}")

    def install(self) -> None:
        """Rebind every public entry point the benchmark attributes time to."""
        import repro.persist.journal as journal
        import repro.persist.store as store
        from repro.backends.cache import TranspileCache
        from repro.cloud.provider import CloudProvider
        from repro.core.client import EQCClientNode
        from repro.core.ensemble import EQCEnsemble
        from repro.core.master import EQCMasterNode
        from repro.core.objective import EnergyObjective, QnnObjective
        from repro.devices.qpu import QPU
        from repro.engine.executor import execute_program
        from repro.persist.checkpoint import TrainingCheckpointer
        from repro.sched.scheduler import CloudScheduler
        from repro.simulator.mixing import noisy_probabilities_batch
        from repro.simulator.sampler import sample_distribution_batch
        from repro.vqa.optimizer import ParameterVectorState

        method = self.wrap_method
        method("core.ensemble", EQCEnsemble, "train")
        method("core.master", EQCMasterNode, "train")
        method("core.client", EQCClientNode, "execute_task")
        method("core.weighting.pcorrect", EQCClientNode, "current_p_correct")
        for objective in (EnergyObjective, QnnObjective):
            method("circuit.bind", objective, "build_job")
            method("hamiltonian.counts_energy", objective, "gradient_from_counts")
            method("hamiltonian.exact_loss", objective, "exact_loss")
        method("transpiler.transpile", TranspileCache, "get_or_transpile")
        method("cloud.provider", CloudProvider, "submit")
        method("devices.qpu", QPU, "execute_batch")
        method("vqa.optimizer.update", ParameterVectorState, "apply")
        for name in ("submit", "run_until_complete", "run_until_time"):
            method("sched.kernel", CloudScheduler, name)
        for name in ("record_update", "after_iteration", "finalize", "close"):
            method("persist.write", TrainingCheckpointer, name)
        method("persist.write", store.RunStore, "create_run")
        method("persist.read", store.RunDirectory, "history")
        self.wrap_function("persist.read", journal.read_journal)
        self.wrap_function("persist.read", store.load_run)
        self.wrap_function("simulator.mixing", noisy_probabilities_batch)
        self.wrap_function("simulator.sampler", sample_distribution_batch)
        self.wrap_function(
            "engine.execute", execute_program, on_result=self._count_points
        )
        real_fsync = os.fsync

        def counted_fsync(fd):
            self.fsyncs += 1
            return real_fsync(fd)

        self._set(os, "fsync", counted_fsync)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def _count_points(self, states) -> None:
        """``execute_program`` returns one state row per parameter point."""
        self.engine_points += len(states)

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per layer: (self seconds, call count)."""
        child_ns = [0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = {layer: [0, 0] for layer in LAYER_METRICS}
        for index, (layer, start, end, _parent) in enumerate(self.spans):
            entry = totals[layer]
            entry[0] += end - start - child_ns[index]
            entry[1] += 1
        return {layer: (ns / 1e9, calls) for layer, (ns, calls) in totals.items()}

    def durations_ms(self, layer: str) -> list[float]:
        return [
            (end - start) / 1e6
            for name, start, end, _parent in self.spans
            if name == layer
        ]

    def coverage(self, region_ns: int) -> float:
        """Share of the region's wall time spent in layers below the training
        loop, i.e. outside the self time of ``core.ensemble`` and
        ``core.master``.  An entry point the loop calls that escaped its
        wrapper adds its time to the loop's self time and lowers this."""
        layers = self.self_times()
        loop_s = sum(layers[layer][0] for layer in ORCHESTRATION)
        return 1.0 - loop_s * 1e9 / region_ns

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON through the program's
        own tracer, after checking them with its validator."""
        from repro.telemetry.trace import Tracer, validate_chrome_trace

        tracer = Tracer(max_events=len(self.spans))
        tracer.process_name = "e2ebench traced run"
        for layer, start, end, _parent in self.spans:
            tracer.add_span(layer, layer.split(".", 1)[0], start, end)
        validate_chrome_trace(tracer.to_chrome())
        tracer.write(path)
