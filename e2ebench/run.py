"""End-to-end EQC training benchmark.

Runs whole EQC training runs of one paper workload (see ``workloads.py`` and
``BENCHMARK.json``) and prints every metric by name with its unit; the last
line of standard output is one JSON object::

    python3 e2ebench/run.py --workload vqe-fig6 --seed 1 --seconds 40 --trace 0
    python3 e2ebench/run.py --workload all           # every workload in turn

Each repetition trains the workload once under ``--seed`` in a fresh
interpreter (``rep.py``) with BLAS threads pinned to 1: one process, one
thread, no cache warmed by an earlier run.  Repetitions repeat while the
next is expected to end within ``--seconds`` (at least two run), must agree
bit for bit, and host figures (``setup_s``, ``updates_per_s``,
``peak_rss_mib``) are reported as their medians; the paper-result metrics are
fixed by the seed.  Set-up and training are timed as the repetition's CPU
time (user + system) and rescaled to a nominal host speed with the reference
loop of ``hostspeed.py``, which runs right after set-up and after every epoch:
on a shared host the speed of the cores drifts, and CPU time drifts with it.

``--trace 1`` alternates untraced and traced repetitions, checks that their
histories are bit-identical, and reports per-layer self time and call
counts, public counters and the tracing overhead.  The spans of the last
traced repetition are written as Chrome trace JSON under ``.e2ebench/``.

Any failed correctness check exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".e2ebench"
#: A run (every workload it names) must end within 180 s; no optional
#: repetition starts past this.
BUDGET_S = 160.0


class BenchmarkFailed(Exception):
    """A repetition failed or its outputs did not check out."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    ):
        env[name] = "1"
    return env


def run_child(argv: list[str], deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkFailed("time budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkFailed(f"repetition timed out: {argv}") from exc
    if proc.returncode != 0:
        raise BenchmarkFailed(
            f"repetition {argv} exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return proc.stdout


def repetition(workload: str, seed: int, deadline: float, trace_file=None) -> dict:
    argv = [
        str(HERE / "rep.py"), "--workload", workload,
        "--seed", str(seed), "--workdir", str(WORKDIR),
    ]
    if trace_file is not None:
        argv += ["--trace-file", str(trace_file)]
    rep = json.loads(run_child(argv, deadline).strip().splitlines()[-1])
    print(
        f"{workload} {'traced' if trace_file else 'untraced'} repetition: "
        f"setup {rep['setup_cpu_s']:.3f} s, train {rep['train_s']:.3f} s CPU "
        f"at {rep['host_speed']:.2f} x nominal speed; "
        f"{rep['updates_per_s']:.1f} updates/s, {rep['peak_rss_mib']:.1f} MiB",
        file=sys.stderr,
    )
    return rep


def more_time(start: float, seconds: float, last: float, deadline: float) -> bool:
    """Another repetition as long as the last one ends within ``seconds`` of
    ``start`` and before the deadline."""
    end = time.monotonic() + last
    return end - start <= seconds and end < deadline


def same(reps: list[dict], what: str) -> None:
    """Repetitions of one seed must agree exactly."""
    for key in ("digest", "counts", "sim_epochs_per_hour", "final_loss", "gradient_yield"):
        if any(rep[key] != reps[0][key] for rep in reps[1:]):
            raise BenchmarkFailed(f"{what}: repetitions disagree on {key}")


def measure(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, int]:
    """Untraced repetitions -> end-to-end metrics."""
    start = time.monotonic()
    reps: list[dict] = []
    last = 0.0
    while len(reps) < 2 or more_time(start, seconds, last, deadline):
        began = time.monotonic()
        reps.append(repetition(name, seed, deadline))
        last = time.monotonic() - began
    same(reps, name)
    metrics = {
        key: statistics.median(rep[key] for rep in reps)
        for key in ("setup_s", "updates_per_s", "peak_rss_mib")
    }
    for key in ("sim_epochs_per_hour", "final_loss", "gradient_yield"):
        metrics[key] = reps[0][key]
    return metrics, len(reps)


def measure_traced(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, int]:
    """Alternating untraced/traced repetitions -> per-layer metrics."""
    trace_file = WORKDIR / f"trace-{name}.json"
    start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    last = 0.0
    while not traced or more_time(start, seconds, last, deadline):
        began = time.monotonic()
        first_traced = len(traced) % 2 == 1
        for tracing in (first_traced, not first_traced):
            if tracing:
                traced.append(repetition(name, seed, deadline, trace_file))
            else:
                plain.append(repetition(name, seed, deadline))
        last = time.monotonic() - began
    same(plain + traced, f"{name} traced vs untraced")
    for key in ("layers", "engine_points", "fsyncs", "spans"):
        values = [rep["trace"][key] for rep in traced]
        if key == "layers":
            values = [{layer: calls for layer, (_, calls) in v.items()} for v in values]
        if any(value != values[0] for value in values[1:]):
            raise BenchmarkFailed(f"{name}: traced repetitions disagree on {key}")

    def med(get):
        return statistics.median(get(rep) for rep in traced)

    first = traced[0]
    counts = first["counts"]
    metrics: dict[str, float] = {}
    for layer, metric in LAYER_METRICS.items():
        metrics[metric] = med(lambda rep: rep["trace"]["layers"][layer][0])
        metrics[f"{layer}.calls"] = first["trace"]["layers"][layer][1]
    sched_s = metrics[LAYER_METRICS["sched.kernel"]]
    events = counts["sched.events_processed"]
    programs = counts["engine.program_cache_hits"] + counts["engine.program_cache_misses"]
    metrics.update(
        {
            "core.client.job_ms_p50": med(lambda rep: rep["trace"]["job_ms_p50"]),
            "core.client.job_ms_p99": med(lambda rep: rep["trace"]["job_ms_p99"]),
            "core.updates": counts["core.updates"],
            "core.jobs_dispatched": counts["core.jobs_dispatched"],
            "core.circuits_executed": counts["core.circuits_executed"],
            "core.mean_staleness": counts["core.mean_staleness"],
            "core.max_staleness": counts["core.max_staleness"],
            "core.useful_job_fraction": first["useful_job_fraction"],
            "engine.points": first["trace"]["engine_points"],
            "engine.program_cache_hit_rate": (
                counts["engine.program_cache_hits"] / programs if programs else 0.0
            ),
            "transpiler.cache_hits": counts["transpiler.cache_hits"],
            "transpiler.cache_misses": counts["transpiler.cache_misses"],
            "sched.events_processed": events,
            "sched.events_per_s": events / sched_s if sched_s > 0 else 0.0,
            "sched.tenant_rejected_fraction": counts["sched.tenant_rejected_fraction"],
            "sched.queue_wait_p50_s": counts["sched.queue_wait_p50_s"],
            "sched.queue_wait_p99_s": counts["sched.queue_wait_p99_s"],
            "persist.bytes_written": med(lambda rep: rep["persisted"]["persist.bytes_written"]),
            "persist.files": first["persisted"]["persist.files"],
            "persist.fsyncs": first["trace"]["fsyncs"],
            "persist.checkpoints": counts["persist.checkpoints"],
            "faults.transient_failures": counts["faults.transient_failures"],
            "faults.retries": counts["faults.retries"],
            "faults.job_failures": counts["faults.job_failures"],
            "faults.outage_deferrals": counts["faults.outage_deferrals"],
            "trace.coverage": med(lambda rep: rep["trace"]["coverage"]),
            "trace.overhead": statistics.median(
                t["train_nominal_s"] / p["train_nominal_s"] - 1.0
                for t, p in zip(traced, plain)
            ),
            "trace.wall_s": med(lambda rep: rep["trace"]["wall_s"]),
            "trace.spans": first["trace"]["spans"],
        }
    )
    return metrics, len(plain) + len(traced)


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float):
    units = declared_metrics(trace)
    # Compiles bytecode and warms the page cache so no repetition pays for it;
    # fails fast when the program's sources are missing.
    run_child(["-c", "import repro, repro.persist, repro.sched"], deadline)
    measured, attempted = (measure_traced if trace else measure)(
        name, seed, seconds, deadline
    )
    if set(measured) != set(units):
        raise BenchmarkFailed(
            f"metrics differ from BENCHMARK.json: {sorted(set(measured) ^ set(units))}"
        )
    return {key: {"value": measured[key], "unit": units[key]} for key in units}, attempted


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORKDIR.mkdir(exist_ok=True)
    metrics: dict[str, dict] = {}
    attempted = 0
    deadline = time.monotonic() + BUDGET_S
    for name in names:
        try:
            results, count = run_workload(
                name, args.seed, args.seconds, bool(args.trace), deadline
            )
        except BenchmarkFailed as failure:
            print(f"{name}: {failure}", file=sys.stderr)
            return 1
        attempted += count
        for key, entry in results.items():
            print(f"{name:18s} {key:34s} {entry['value']:>16.6g} {entry['unit']}")
            metrics[key if len(names) == 1 else f"{name}:{key}"] = entry
    print(
        json.dumps(
            {"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
