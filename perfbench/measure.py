"""Metric names and units, statistics, and the per-layer arithmetic."""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

# Every metric the benchmark prints, with its unit.  BENCHMARK.json
# lists the same names and units; the smoke tests hold the two together.
END_TO_END: Dict[str, str] = {
    "accesses_per_s": "1/s",
    "sim_cycles": "cycles",
    "sim_ipc_sum": "ipc",
    "cold_jobs_per_s": "1/s",
    "warm_jobs_per_s": "1/s",
    "job_latency_p50_ms": "ms",
    "job_latency_p95_ms": "ms",
    "export_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER: Dict[str, str] = {
    "workloads.entries": "count",
    "workloads.gen_s": "s",
    "prefetch.on_access_calls": "count",
    "prefetch.on_access_s": "s",
    "prefetch.pf_sent": "count",
    "prefetch.pf_used": "count",
    "prefetch.accuracy": "ratio",
    "prefetch.pf_late": "count",
    "prefetch.pf_mshr_rejected": "count",
    "cache.l2_hits": "count",
    "cache.l2_misses": "count",
    "cache.hit_rate": "ratio",
    "cache.mshr_stalls": "count",
    "cache.pf_evicted_unused": "count",
    "core.instructions": "count",
    "core.stall_cycles": "cycles",
    "controller.rounds": "count",
    "controller.round_s": "s",
    "controller.round_share": "ratio",
    "controller.dropped_prefetches": "count",
    "controller.drop_frac": "ratio",
    "controller.rejected_full": "count",
    "controller.demand_overflows": "count",
    "controller.peak_occupancy": "count",
    "dram.row_buffer_hit_rate": "ratio",
    "dram.bus_traffic_lines": "count",
    "dram.writeback_lines": "count",
    "sim.accesses": "count",
    "sim.setup_s": "s",
    "sim.run_s": "s",
    "sim.host_us_per_access": "us",
    "sim.kernel_cache_s": "s",
    "sim.trace_overhead_frac": "ratio",
    "runtime.job_key_calls": "count",
    "runtime.job_key_s": "s",
    "runtime.store_get_calls": "count",
    "runtime.store_hits": "count",
    "runtime.store_get_s": "s",
    "runtime.store_put_calls": "count",
    "runtime.store_put_s": "s",
    "campaign.create_s": "s",
    "campaign.ledger_appends": "count",
    "campaign.ledger_append_s": "s",
    "campaign.job_overhead_s": "s",
}

# Layer metrics that are exact functions of the simulated work: they
# must repeat bit for bit across runs of the same code and inputs.
EXACT_LAYER = [name for name, unit in PER_LAYER.items() if unit in ("count", "cycles", "ratio")]
EXACT_LAYER.remove("controller.round_share")
EXACT_LAYER.remove("sim.trace_overhead_frac")


# Percentile that summarizes a repeated sub-second operation (a warm
# serve or run, an export).  The host alternates between a fast and a
# slower phase, so such times are bimodal; the median flips between the
# two from run to run, while the 90th percentile stays in the common,
# slower phase.
SHORT_OP_PCT = 90


class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.problems: List[str] = []

    def fail(self, message: str) -> None:
        self.problems.append(message)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: int) -> float:
    """Inclusive-method percentile; the sample itself when there is one."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[pct - 1])


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def add_run(totals: Dict[str, float], system, result) -> None:
    """Add the exact counts of one finished simulation to ``totals``."""
    for core in result.cores:
        totals["prefetch.pf_sent"] += core.pf_sent
        totals["prefetch.pf_used"] += core.pf_used
        totals["prefetch.pf_late"] += core.pf_late
        totals["prefetch.pf_mshr_rejected"] += core.pf_mshr_rejected
        totals["cache.l2_hits"] += core.l2_hits
        totals["cache.l2_misses"] += core.l2_misses
        totals["cache.mshr_stalls"] += core.mshr_stalls
        totals["cache.pf_evicted_unused"] += core.pf_evicted_unused
        totals["core.instructions"] += core.instructions
        totals["core.stall_cycles"] += core.stall_cycles
        totals["dram.writeback_lines"] += core.writeback_fills
    totals["controller.dropped_prefetches"] += result.dropped_prefetches
    totals["controller.rejected_full"] += result.prefetches_rejected_full
    totals["controller.demand_overflows"] += result.demand_overflows
    totals["dram.bus_traffic_lines"] += result.bus_traffic_lines
    engine = system.engine
    totals["controller.peak_occupancy"] = max(
        totals["controller.peak_occupancy"], max(engine.peak_occupancy)
    )
    for channel in engine.channels:
        for bank in channel.banks:
            totals["dram.row_hits"] += bank.hits
            totals["dram.row_accesses"] += bank.total_accesses


def layer_metrics(tracer, campaign_s: float = 0.0) -> Dict[str, float]:
    """Per-layer metrics of one traced operation (a simulation or a cycle).

    The layer times plus ``sim.kernel_cache_s`` add up to ``sim.run_s``
    by construction: the kernel figure is the residual.  The caller sets
    ``sim.trace_overhead_frac``, which needs the untraced runs too.
    """
    counts = tracer.counts
    metrics: Dict[str, float] = {name: counts.get(name, 0) for name in EXACT_LAYER}
    metrics["sim.accesses"] = metrics["cache.l2_hits"] + metrics["cache.l2_misses"]
    metrics["prefetch.accuracy"] = ratio(metrics["prefetch.pf_used"], metrics["prefetch.pf_sent"])
    metrics["cache.hit_rate"] = ratio(metrics["cache.l2_hits"], metrics["sim.accesses"])
    metrics["controller.drop_frac"] = ratio(
        metrics["controller.dropped_prefetches"], metrics["prefetch.pf_sent"]
    )
    metrics["dram.row_buffer_hit_rate"] = ratio(
        counts.get("dram.row_hits", 0), counts.get("dram.row_accesses", 0)
    )
    times = tracer.times
    for name, unit in PER_LAYER.items():
        if unit == "s":
            metrics[name] = times.get(name, 0.0)
    run_s = metrics["sim.run_s"]
    metrics["sim.kernel_cache_s"] = run_s - (
        metrics["controller.round_s"]
        + metrics["workloads.gen_s"]
        + metrics["prefetch.on_access_s"]
    )
    metrics["controller.round_share"] = ratio(metrics["controller.round_s"], run_s)
    metrics["sim.host_us_per_access"] = 1e6 * ratio(run_s, metrics["sim.accesses"])
    metrics["campaign.job_overhead_s"] = (
        campaign_s - metrics["sim.setup_s"] - run_s if campaign_s else 0.0
    )
    for name in tracer.missing:
        metrics.pop(name, None)
    return metrics


def exact_part(metrics: Dict[str, float]) -> Dict[str, float]:
    return {name: metrics[name] for name in EXACT_LAYER if name in metrics}


def sha256(payload) -> str:
    """Digest of a string, or of a JSON value in canonical form."""
    text = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def emit(metrics: Dict[str, float], units: Dict[str, str]) -> Dict[str, Dict]:
    return {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in units.items()
        if name in metrics
    }


def first_difference(a: Dict, b: Dict) -> Optional[str]:
    for name in sorted(set(a) | set(b)):
        if a.get(name) != b.get(name):
            return f"{name}: {a.get(name)!r} != {b.get(name)!r}"
    return None


def check_repeats(samples: List[Dict[str, float]]) -> List[str]:
    """Differences between the exact parts of repeated operations."""
    problems = []
    for index, sample in enumerate(samples[1:], 1):
        diff = first_difference(exact_part(samples[0]), exact_part(sample))
        if diff is not None:
            problems.append(f"repeat {index} differs from repeat 0: {diff}")
    return problems
