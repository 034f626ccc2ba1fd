"""The three ``System.run`` workloads: one simulation at a time, closed loop.

A timed run builds a fresh ``System`` on the same inputs and runs it,
again and again, until the run's seconds are spent.  Every result must
equal a ``backend="reference"`` run on the same inputs.  A traced run
alternates untraced and traced simulations; the traced ones give the
per-layer numbers and the pairs give the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import resource
import time
from typing import Dict, List

import measure
import workloads
from repro import api
from repro.runtime import Runtime, SimJob
from repro.sim.results import SimResult
from tracer import Tracer

perf = time.perf_counter

# Warm serves and exports after each simulation, so that they are spread
# over the whole run.
WARM_PER_SIMULATION = 20


def reference_result(config, profiles, seed: int, accesses: int) -> Dict:
    """The readable oracle: the same simulation on the reference backend."""
    system = workloads.build_system(config, profiles, seed, backend="reference")
    return system.run(accesses).to_dict()


def _simulate(config, profiles, seed: int, accesses: int):
    gc.collect()
    start = perf()
    system = workloads.build_system(config, profiles, seed)
    built = perf()
    result = system.run(accesses)
    return result, built - start, perf() - built


def run_timed(name: str, seed: int, seconds: float, size, scratch, outcome: measure.Outcome):
    config, profiles = workloads.mix_inputs(name)
    accesses = size.accesses
    reference = reference_result(config, profiles, seed, accesses)
    # A finished simulation requested again through the runtime is served
    # from the result store; the "export" of one simulation is its
    # canonical JSON.
    runtime = Runtime(cache_dir=scratch / "store", jobs=1, cache_enabled=True)
    key = SimJob.make(config, profiles, accesses, seed=seed).key()
    runtime.store.put(key, SimResult.from_dict(reference))
    latencies: List[float] = []
    run_times: List[float] = []
    warm: List[float] = []
    exports: List[float] = []
    first = None
    deadline = perf() + seconds
    while first is None or perf() < deadline:
        outcome.attempted += 1
        try:
            result, setup_s, run_s = _simulate(config, profiles, seed, accesses)
        except Exception as error:  # noqa: BLE001 - counted, not raised
            outcome.fail(f"simulation raised {error!r}")
            if perf() >= deadline:
                break
            continue
        latencies.append(setup_s + run_s)
        run_times.append(run_s)
        payload = result.to_dict()
        if payload != reference:
            diff = measure.first_difference(payload, reference)
            outcome.fail(
                f"simulation {len(run_times) - 1} differs from the reference backend: {diff}"
            )
        first = first or result
        for _ in range(WARM_PER_SIMULATION):
            outcome.attempted += 1
            start = perf()
            served = api.submit(config, profiles, accesses, seed=seed, runtime=runtime)
            warm.append(perf() - start)
            start = perf()
            json.dumps(served.to_dict(), sort_keys=True)
            exports.append(perf() - start)
            if served.to_dict() != reference:
                outcome.fail("warm submit returned a different result")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if first is None:
        return {}, {}
    if len(runtime.store) != 1:
        outcome.fail(f"warm submits simulated again: {len(runtime.store)} store entries")

    metrics = {
        "accesses_per_s": len(run_times) * len(profiles) * accesses / sum(run_times),
        "sim_cycles": first.total_cycles,
        "sim_ipc_sum": sum(core.ipc for core in first.cores),
        "cold_jobs_per_s": len(latencies) / sum(latencies),
        "warm_jobs_per_s": 1.0 / measure.percentile(warm, measure.SHORT_OP_PCT),
        "job_latency_p50_ms": 1e3 * measure.median(latencies),
        "job_latency_p95_ms": 1e3 * measure.percentile(latencies, 95),
        "export_s": measure.percentile(exports, measure.SHORT_OP_PCT),
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "simulations": len(run_times),
        "latency_samples": len(latencies),
        "output_sha256": measure.sha256(reference),
        "latencies_s": latencies,
        "run_s": run_times,
        "warm_s": warm,
        "export_s": exports,
    }
    return metrics, info


def run_traced(name: str, seed: int, seconds: float, size, run_id: str, outcome: measure.Outcome):
    config, profiles = workloads.mix_inputs(name)
    accesses = size.accesses
    tracer = Tracer(run_id)
    samples: List[Dict[str, float]] = []
    untraced: List[float] = []
    payloads: List[Dict] = []
    deadline = perf() + seconds
    while not samples or perf() < deadline:
        outcome.attempted += 2
        try:
            plain, _, plain_s = _simulate(config, profiles, seed, accesses)
            tracer.reset()
            with tracer:
                traced, _, _ = _simulate(config, profiles, seed, accesses)
        except Exception as error:  # noqa: BLE001
            outcome.fail(f"simulation raised {error!r}")
            if perf() >= deadline:
                break
            continue
        payloads += [plain.to_dict(), traced.to_dict()]
        untraced.append(plain_s)
        samples.append(measure.layer_metrics(tracer))
    if not samples:
        return {}, {}, tracer
    reference = reference_result(config, profiles, seed, accesses)
    for index, payload in enumerate(payloads):
        if payload != reference:
            label = "traced" if index % 2 else "untraced"
            outcome.fail(f"{label} simulation {index // 2} differs from the reference backend")
    for problem in measure.check_repeats(samples):
        outcome.fail(problem)
    overhead = measure.median([s["sim.run_s"] for s in samples]) / measure.median(untraced) - 1.0
    # All times of one simulation, so that they add up: the traced
    # simulation with the median run time.
    chosen = sorted(samples, key=lambda s: s["sim.run_s"])[(len(samples) - 1) // 2]
    chosen["sim.trace_overhead_frac"] = overhead
    return chosen, {"traced_simulations": len(samples)}, tracer
