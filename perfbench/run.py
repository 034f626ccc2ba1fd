"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``mix4-intensive-rank``, ``mix4-cachefit``,
``mix4-unfriendly-stores`` and ``sweep-short-jobs`` (see README.md).
``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that gives the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a readable
summary goes to standard error, and the run record (environment, sample
counts, spans) to ``.perfbench_out/runs/``.

Exits 1 after printing the result when an output check failed, and 2
without a result when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import env

# Fresh interpreters per run that each time the package's set-up.
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="operation size; 'tiny' is for the benchmark's smoke tests",
    )
    return parser.parse_args(argv)


def setup_seconds(args, scratch: Path, outcome) -> list:
    """Set-up time of ``SETUP_PROBES`` fresh interpreters."""
    samples = []
    for index in range(SETUP_PROBES):
        probe_dir = scratch / f"setup{index}"
        command = [
            sys.executable,
            str(env.HERE / "setup_probe.py"),
            args.workload,
            str(args.seed),
            args.size,
            str(probe_dir),
        ]
        done = subprocess.run(
            command, env=env.child_env(), capture_output=True, text=True, timeout=120
        )
        if done.returncode != 0:
            outcome.fail(f"set-up probe failed: {done.stderr.strip()[-500:]}")
            continue
        samples.append(float(done.stdout.strip().splitlines()[-1]))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return samples


def check_against_earlier_runs(key: str, exact: dict, outcome) -> None:
    """Fail when an earlier run of the same code and inputs counted otherwise.

    Only a run whose checks all passed is kept as the earlier run.
    """
    import measure

    path = env.OUT / "counts" / f"{key}.json"
    digest = env.source_digest()
    try:
        earlier = json.loads(path.read_text())
    except (OSError, ValueError):
        earlier = None
    if earlier is not None and earlier.get("digest") == digest:
        diff = measure.first_difference(earlier["exact"], exact)
        if diff is not None:
            outcome.fail(f"exact count differs from an earlier run of this code: {diff}")
    elif not outcome.problems:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"digest": digest, "exact": exact}, sort_keys=True))


def measure_workload(args, scratch: Path, run_id: str, outcome):
    import measure
    import mix4
    import sweep
    import workloads

    size = workloads.SIZES[args.size]
    extra = {}
    if args.trace:
        if args.workload == workloads.SWEEP:
            metrics, info, tracer = sweep.run_traced(
                args.seed, args.seconds, size, scratch, run_id, outcome
            )
        else:
            metrics, info, tracer = mix4.run_traced(
                args.workload, args.seed, args.seconds, size, run_id, outcome
            )
        exact = measure.exact_part(metrics)
        extra = {
            "spans": tracer.span_records(),
            "notes": tracer.notes,
            "missing": sorted(tracer.missing),
        }
    else:
        setup = setup_seconds(args, scratch, outcome)
        if args.workload == workloads.SWEEP:
            metrics, info = sweep.run_timed(args.seed, args.seconds, size, scratch, outcome)
        else:
            metrics, info = mix4.run_timed(
                args.workload, args.seed, args.seconds, size, scratch, outcome
            )
        if setup:
            metrics["setup_s"] = measure.median(setup)
        info["setup_samples"] = setup
        exact = {name: metrics[name] for name in ("sim_cycles", "sim_ipc_sum") if name in metrics}
        exact["output_sha256"] = info.get("output_sha256")
    key = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    check_against_earlier_runs(key, exact, outcome)
    return metrics, info, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    dropped = env.pin()
    if not env.have_sources():
        print(f"perfbench: no package sources at {env.SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(env.SRC))
    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"known: {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    (env.OUT / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=str(env.OUT / "tmp")))
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    outcome = measure.Outcome()
    metrics, info, extra = {}, {}, {}
    try:
        metrics, info, extra = measure_workload(args, scratch, run_id, outcome)
    except Exception:  # noqa: BLE001 - reported as a failed run
        outcome.fail(traceback.format_exc())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = measure.PER_LAYER if args.trace else measure.END_TO_END
    missing = [name for name in units if name not in metrics]
    attempted = max(outcome.attempted, 1)
    failed = min(len(outcome.problems), attempted)
    record = {
        "run": run_id,
        "env": env.record(args.seed, dropped),
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "problems": outcome.problems,
        "info": info,
        "metrics": metrics,
        "missing_metrics": missing,
        **extra,
    }
    runs = env.OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{run_id}.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    for problem in outcome.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    for name, unit in units.items():
        value = metrics.get(name)
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{name:32s} {shown:>14s} {unit}", file=sys.stderr)
    counts = {k: v for k, v in info.items() if not isinstance(v, list)}
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted}); {counts}", file=sys.stderr)
    correct = not outcome.problems and not (missing and not args.trace)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": measure.emit(metrics, units),
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
