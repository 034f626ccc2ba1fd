"""One set-up measurement in a fresh interpreter; prints seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED SIZE SCRATCH_DIR

The clock covers the package import plus ``System`` construction for a
``mix4-*`` workload, or the package import, spec build and
``api.Campaign.create`` for the sweep.
"""

import sys
import time

start = time.perf_counter()

import workloads  # noqa: E402 - the import is part of what is timed


def main(argv) -> int:
    name, seed, size, scratch = argv[1], int(argv[2]), workloads.SIZES[argv[3]], argv[4]
    if name == workloads.SWEEP:
        from repro.runtime import Runtime

        runtime = Runtime(cache_dir=f"{scratch}/store", jobs=1, cache_enabled=True)
        workloads.create_campaign(workloads.sweep_spec(seed, size), f"{scratch}/campaign", runtime)
    else:
        config, profiles = workloads.mix_inputs(name)
        workloads.build_system(config, profiles, seed)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
