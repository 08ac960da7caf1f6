"""One benchmark repetition: build, train and check one workload instance.

``run.py`` starts every repetition in a fresh interpreter, so process-global
caches (the shared program cache, gate-matrix, readout-confusion and
bitstring-label memos) start empty each time and set-up time and peak memory
describe one run.  Set-up and training are timed in CPU seconds of this
process and rescaled to a nominal host speed by the reference loop of
``hostspeed.py``, sampled right after set-up and after every epoch of an
untraced run.  Prints one JSON object on stdout; exits with code 3 when a
correctness check fails.

    python rep.py --workload vqe-fig6 --seed 1 --workdir DIR
                  [--trace-file trace.json]
"""

import time

_START = time.process_time()  # set-up is timed from before ``import repro``

import argparse
import hashlib
import json
import resource
import shutil
import sys
from pathlib import Path

from workloads import WORKLOADS


#: Reference samples taken right after set-up to rescale its CPU time.
SETUP_SAMPLES = 16


class CheckFailed(Exception):
    """A correctness check on the program's output failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def history_digest(history) -> str:
    """Bit-exact fingerprint of a training history's records and totals."""
    digest = hashlib.sha256()
    for record in history.records:
        digest.update(
            repr(
                (
                    record.epoch,
                    float(record.sim_time_hours).hex(),
                    float(record.loss).hex(),
                    [float(v).hex() for v in record.parameters],
                    sorted((k, float(w).hex()) for k, w in record.weights.items()),
                )
            ).encode()
        )
    digest.update(repr((history.total_updates, history.total_jobs)).encode())
    return digest.hexdigest()


def read_back(store: str, history) -> dict:
    """Read the durable run back and check it against the returned history."""
    import repro

    (run_id,) = repro.RunStore(store).run_ids()
    run = repro.load_run(store, run_id)
    journal = repro.read_journal(run.journal_path)
    stored = run.history()
    check(
        journal.committed_updates == history.total_updates,
        f"journal vouches for {journal.committed_updates} updates, "
        f"training applied {history.total_updates}",
    )
    check(
        history_digest(stored) == history_digest(history),
        "the run store's history differs from the returned history",
    )
    files = [path for path in Path(store).rglob("*") if path.is_file()]
    return {
        "persist.bytes_written": sum(path.stat().st_size for path in files),
        "persist.files": len(files),
    }


def public_counts(built, history) -> dict:
    """Exact counts read from the program's public state after a run."""
    from repro import shared_program_cache

    ensemble = built.ensemble
    metadata = history.metadata
    fault_stats = metadata.get("fault_stats", {})
    transpile = ensemble.transpile_cache.stats()
    programs = shared_program_cache().stats()
    counts = {
        "core.updates": history.total_updates,
        "core.jobs_dispatched": history.total_jobs,
        "core.circuits_executed": metadata["circuits_executed"],
        "core.mean_staleness": metadata["mean_staleness"],
        "core.max_staleness": metadata["max_staleness"],
        "core.dispatch_failures": fault_stats.get("dispatch_failures", 0),
        "core.stragglers_cut": fault_stats.get("stragglers_cut", 0),
        "transpiler.cache_hits": transpile["hits"],
        "transpiler.cache_misses": transpile["misses"],
        "engine.program_cache_hits": programs["hits"],
        "engine.program_cache_misses": programs["misses"],
        "persist.checkpoints": metadata.get("persist", {}).get("checkpoints_written", 0),
    }
    for name in ("transient_failures", "retries", "job_failures", "outage_deferrals"):
        counts[f"faults.{name}"] = ensemble.provider.fault_counters[name]
    sched = {
        "sched.events_processed": 0,
        "sched.tenant_rejected_fraction": 0.0,
        "sched.queue_wait_p50_s": 0.0,
        "sched.queue_wait_p99_s": 0.0,
    }
    if ensemble.scheduler is not None:
        metrics = ensemble.scheduler.metrics()
        tenant_jobs = sum(
            report["jobs_completed"]
            for tenant, report in ensemble.scheduler.tenant_report().items()
            if tenant != "eqc"
        )
        rejected = sum(d["jobs_rejected"] for d in metrics["devices"].values())
        sched = {
            "sched.events_processed": metrics["events_processed"],
            "sched.tenant_rejected_fraction": rejected / (rejected + tenant_jobs),
            "sched.queue_wait_p50_s": metrics["slo"]["queue_wait_p50"],
            "sched.queue_wait_p99_s": metrics["slo"]["queue_wait_p99"],
        }
    counts.update(sched)
    return counts


def check_history(workload, built, history) -> None:
    objective = built.ensemble.objective
    cycle = built.task_queue.cycle_length
    check(
        history.total_updates == workload.epochs * cycle,
        f"{history.total_updates} updates applied, expected "
        f"{workload.epochs} epochs x {cycle}",
    )
    check(
        len(history.records) == workload.epochs
        and history.records[-1].epoch == workload.epochs,
        "history does not hold one record per epoch",
    )
    circuits = history.metadata["circuits_executed"]
    check(
        circuits == history.total_jobs * workload.circuits_per_job,
        f"{circuits} circuits executed for {history.total_jobs} jobs of "
        f"{workload.circuits_per_job} circuits",
    )
    check(
        history.records[-1].loss == objective.exact_loss(history.final_parameters),
        "the last epoch's loss is not the exact loss of the final parameters",
    )
    if workload.converges:
        start = objective.exact_loss(built.initial_parameters)
        check(
            history.records[-1].loss < start,
            f"training did not lower the loss: {start} -> {history.records[-1].loss}",
        )
    scheduler = built.ensemble.scheduler
    if scheduler is not None:
        eqc_jobs = scheduler.tenant_report()["eqc"]["jobs_completed"]
        check(
            eqc_jobs == history.total_jobs,
            f"{history.total_jobs - eqc_jobs} foreground EQC jobs were rejected",
        )


def check_trace(built, history, counts, tracer) -> None:
    """Every rebound entry point ran as often as the program's own counters
    say it must, so an entry point that escaped its wrapper fails the run."""
    calls = {layer: count for layer, (_, count) in tracer.self_times().items()}
    jobs = history.total_jobs
    attempts = jobs + counts["core.dispatch_failures"]
    expected = {
        "core.ensemble": 1,
        "core.master": 1,
        "core.client": attempts,
        "core.weighting.pcorrect": attempts,
        "circuit.bind": attempts,
        "cloud.provider": attempts,
        "hamiltonian.counts_energy": jobs,
        "devices.qpu": jobs,
        "simulator.mixing": jobs,
        "simulator.sampler": jobs,
        "hamiltonian.exact_loss": len(history.records),
        "vqa.optimizer.update": history.total_updates,
    }
    for layer, count in expected.items():
        check(calls[layer] == count, f"{layer} traced {calls[layer]} calls, expected {count}")
    check(
        tracer.engine_points == counts["core.circuits_executed"],
        f"engine executed {tracer.engine_points} points for "
        f"{counts['core.circuits_executed']} circuits",
    )
    for layer in ("engine.execute", "transpiler.transpile"):
        check(calls[layer] > 0, f"{layer} traced no calls")
    uses = {
        "sched.kernel": built.ensemble.scheduler is not None,
        "persist.write": built.run_store is not None,
        "persist.read": built.run_store is not None,
    }
    for layer, used in uses.items():
        check(
            (calls[layer] > 0) == used,
            f"{layer} traced {calls[layer]} calls on a workload that "
            f"{'uses' if used else 'does not use'} it",
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    built = workload.build(args.seed, args.workdir)
    setup_cpu = time.process_time() - _START

    from hostspeed import SpeedProbe

    setup_probe = SpeedProbe()
    for _ in range(SETUP_SAMPLES):
        setup_probe.sample()

    import repro

    source = Path(__file__).resolve().parent.parent / "src"
    check(
        Path(repro.__file__).resolve().is_relative_to(source),
        f"imported repro from {repro.__file__}, not from {source}",
    )
    train_probe = SpeedProbe()
    undo_probe = None
    try:
        tracer = None
        if args.trace_file:
            from tracing import LayerTracer

            tracer = LayerTracer()
            tracer.install()
        else:
            # The master computes each epoch's exact loss once, at its end.
            undo_probe = train_probe.after_each_call(
                type(built.ensemble.objective), "exact_loss"
            )
        region_start = time.perf_counter_ns()
        train_start = time.process_time()
        history = built.ensemble.train(
            built.initial_parameters,
            num_epochs=workload.epochs,
            task_queue=built.task_queue,
        )
        train_s = time.process_time() - train_start - train_probe.spent
        persisted = {"persist.bytes_written": 0, "persist.files": 0}
        if built.run_store is not None:
            persisted = read_back(built.run_store, history)
        region_ns = time.perf_counter_ns() - region_start
        if tracer is not None:
            tracer.uninstall()
    finally:
        if undo_probe is not None:
            undo_probe()
        if built.run_store is not None:
            shutil.rmtree(built.run_store, ignore_errors=True)

    check_history(workload, built, history)
    counts = public_counts(built, history)
    if tracer is not None:
        check_trace(built, history, counts, tracer)
    attempts = counts["core.jobs_dispatched"] + counts["core.dispatch_failures"]
    undelivered = counts["core.dispatch_failures"] + counts["core.stragglers_cut"]
    if tracer is None:
        check(
            len(train_probe.samples) == workload.epochs,
            f"the host-speed probe ran {len(train_probe.samples)} times in "
            f"{workload.epochs} epochs",
        )
    else:
        # Nothing may run inside the traced region but the program, so a
        # traced repetition samples the host speed either side of it.
        train_probe.samples.extend(setup_probe.samples)
        for _ in range(SETUP_SAMPLES):
            train_probe.sample()
    train_nominal_s = train_probe.nominal(train_s)
    result = {
        "setup_s": setup_probe.nominal(setup_cpu),
        "setup_cpu_s": setup_cpu,
        "train_s": train_s,
        "train_nominal_s": train_nominal_s,
        "host_speed": train_probe.nominal(1.0),
        "updates_per_s": history.total_updates / train_nominal_s,
        "sim_epochs_per_hour": history.epochs_per_hour(),
        "final_loss": history.records[-1].loss - built.loss_floor,
        "gradient_yield": 1.0 - undelivered / attempts,
        "useful_job_fraction": history.total_updates / attempts,
        "digest": history_digest(history),
        "counts": counts,
        "persisted": persisted,
    }
    if tracer is not None:
        import numpy as np

        tracer.write_chrome_trace(args.trace_file)
        jobs_ms = tracer.durations_ms("core.client")
        p50, p99 = np.percentile(jobs_ms, [50, 99])
        result["trace"] = {
            "layers": tracer.self_times(),
            "job_ms_p50": float(p50),
            "job_ms_p99": float(p99),
            "engine_points": tracer.engine_points,
            "fsyncs": tracer.fsyncs,
            "coverage": tracer.coverage(region_ns),
            "wall_s": region_ns / 1e9,
            "spans": len(tracer.spans),
        }
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    try:
        main()
    except CheckFailed as failure:
        print(f"correctness check failed: {failure}", file=sys.stderr)
        sys.exit(3)
