"""The campaign workload: a serial sweep of short jobs, cold then warm.

One cycle creates a campaign over an empty result store, runs it cold,
then runs the same spec in fresh campaign directories over the now-warm
store, and exports the cold and every warm campaign as CSV.  Every job
must finish ``done``, the warm runs must be served wholly from the
store, and every export must be byte-identical to the first cycle's
cold export.
"""

from __future__ import annotations

import gc
import resource
import shutil
import time
from typing import Dict, List

import measure
import workloads
from repro import api
from repro.campaign import CampaignError
from repro.runtime import Runtime
from tracer import Tracer

perf = time.perf_counter

# Warm runs (and warm exports) per cycle; short cycles spread them over
# the whole run.
WARM_REPEATS = 4


def export_csv(handle) -> str:
    return handle.export(fmt="csv")


def _done_records(handle) -> List[Dict]:
    return [r for r in handle.inner.ledger.records() if r.get("status") == "done"]


def _run_campaign(spec, directory, runtime, outcome: measure.Outcome):
    """Run ``spec`` in ``directory``; returns ``(handle, seconds, results)``."""
    results = {}
    start = perf()
    try:
        results = api.campaign(spec, directory=directory, runtime=runtime, retries=0).results
    except CampaignError as error:
        outcome.fail(f"campaign in {directory.name} incomplete: {error}")
    seconds = perf() - start
    handle = api.Campaign.open(directory, runtime=runtime)
    status = handle.status()
    outcome.attempted += status["total"]
    for state, count in sorted(status["counts"].items()):
        if state != "done" and count:
            outcome.fail(f"{count} jobs of the {directory.name} campaign ended {state}")
    return handle, seconds, results


def run_cycle(
    spec, directory, outcome: measure.Outcome, golden: List[str], warm_repeats=WARM_REPEATS
) -> Dict:
    """One cold run, ``warm_repeats`` warm runs and their exports."""
    gc.collect()
    runtime = Runtime(cache_dir=directory / "store", jobs=1, cache_enabled=True)
    workloads.create_campaign(spec, directory / "cold", runtime)
    cold, cold_s, by_key = _run_campaign(spec, directory / "cold", runtime, outcome)
    records = _done_records(cold)
    # Latency percentiles cover the four-core policy jobs only.  The
    # single-core alone runs take about a quarter of their time, and with
    # the faster no-prefetching jobs they are half of the campaign, so the
    # median over all jobs would sit in the gap between the two sizes.
    latencies = [record["elapsed"] for record in records if record["job"]["kind"] == "grid"]
    if any(record.get("cached") for record in records):
        outcome.fail("the cold run was served from the store")
    results = [by_key[job.key] for job in cold.unique_jobs() if job.key in by_key]
    accesses = sum(core.l2_hits + core.l2_misses for r in results for core in r.cores)

    start = perf()
    cold_csv = export_csv(cold)
    exports = [perf() - start]
    if not golden:
        golden.append(cold_csv)
    elif cold_csv != golden[0]:
        outcome.fail("the cold export differs from the first cycle's")
    warm_s: List[float] = []
    for index in range(warm_repeats):
        warm, seconds, _ = _run_campaign(spec, directory / f"warm{index}", runtime, outcome)
        warm_s.append(seconds)
        simulated = [r for r in _done_records(warm) if not r.get("cached")]
        if simulated:
            outcome.fail(f"warm run {index} simulated {len(simulated)} jobs")
        outcome.attempted += 1
        start = perf()
        warm_csv = export_csv(warm)
        exports.append(perf() - start)
        if warm_csv != golden[0]:
            outcome.fail(f"warm export {index} differs from the cold export")
    shutil.rmtree(directory, ignore_errors=True)
    jobs = len(cold.unique_jobs())
    return {
        "jobs": jobs,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "exports": exports,
        "latencies": latencies,
        "accesses": accesses,
        "sim_cycles": sum(r.total_cycles for r in results),
        "sim_ipc_sum": sum(core.ipc for r in results for core in r.cores),
    }


def run_timed(seed: int, seconds: float, size, scratch, outcome: measure.Outcome):
    spec = workloads.sweep_spec(seed, size)
    cycles: List[Dict] = []
    golden: List[str] = []
    # One short untimed cycle first, so that lazy imports, the profile
    # tables and the file-system caches are warm when the clock starts.
    # Its checks count like every other cycle's.
    run_cycle(spec, scratch / "warmup", outcome, golden, warm_repeats=1)
    deadline = perf() + seconds
    while not cycles or perf() < deadline:
        cycles.append(run_cycle(spec, scratch / f"cycle{len(cycles)}", outcome, golden))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for index, cycle in enumerate(cycles[1:], 1):
        for name in ("sim_cycles", "sim_ipc_sum", "accesses"):
            if cycle[name] != cycles[0][name]:
                outcome.fail(f"cycle {index} {name} {cycle[name]} != {cycles[0][name]}")
    latencies = [s for cycle in cycles for s in cycle["latencies"]]
    cold_s = sum(c["cold_s"] for c in cycles)
    warm_s = [s for c in cycles for s in c["warm_s"]]
    metrics = {
        "accesses_per_s": sum(c["accesses"] for c in cycles) / cold_s,
        "sim_cycles": cycles[0]["sim_cycles"],
        "sim_ipc_sum": cycles[0]["sim_ipc_sum"],
        "cold_jobs_per_s": sum(c["jobs"] for c in cycles) / cold_s,
        "warm_jobs_per_s": cycles[0]["jobs"] / measure.percentile(warm_s, measure.SHORT_OP_PCT),
        "job_latency_p50_ms": 1e3 * measure.median(latencies),
        "job_latency_p95_ms": 1e3 * measure.percentile(latencies, 95),
        "export_s": measure.percentile(
            [s for c in cycles for s in c["exports"]], measure.SHORT_OP_PCT
        ),
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "cycles": len(cycles),
        "jobs_per_cycle": cycles[0]["jobs"],
        "latency_samples": len(latencies),
        "output_sha256": measure.sha256(golden[0]),
        "cold_s": [c["cold_s"] for c in cycles],
        "warm_s": warm_s,
        "export_s": [s for c in cycles for s in c["exports"]],
    }
    return metrics, info


def run_traced(seed: int, seconds: float, size, scratch, run_id: str, outcome: measure.Outcome):
    spec = workloads.sweep_spec(seed, size)
    tracer = Tracer(run_id)
    samples: List[Dict[str, float]] = []
    untraced: List[float] = []
    traced: List[float] = []
    golden: List[str] = []
    deadline = perf() + seconds
    while not samples or perf() < deadline:
        plain = run_cycle(spec, scratch / f"plain{len(samples)}", outcome, golden)
        tracer.reset()
        with tracer:
            cycle, _ = tracer.span(
                "sweep.cycle",
                run_cycle,
                spec,
                scratch / f"traced{len(samples)}",
                outcome,
                golden,
            )
        untraced.append(plain["cold_s"])
        traced.append(cycle["cold_s"])
        samples.append(measure.layer_metrics(tracer, campaign_s=cycle["cold_s"]))
    for problem in measure.check_repeats(samples):
        outcome.fail(problem)
    chosen = sorted(samples, key=lambda s: s["sim.run_s"])[(len(samples) - 1) // 2]
    chosen["sim.trace_overhead_frac"] = measure.median(traced) / measure.median(untraced) - 1.0
    return chosen, {"traced_cycles": len(samples)}, tracer
