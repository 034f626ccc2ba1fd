"""Inputs of the four benchmark workloads, built from the run seed.

Everything here goes through the package's public entry points:
``repro.params.baseline_config``, ``repro.workloads.get_profile``,
``repro.sim.system.System`` and ``repro.campaign.CampaignSpec``.  No
input depends on the environment; ``env.pin`` clears the ``REPRO_*``
variables before this module is imported.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, NamedTuple, Tuple

from repro import api
from repro.campaign import CampaignSpec, Workload
from repro.params import ALL_POLICIES, baseline_config
from repro.sim.system import System
from repro.workloads import get_profile, workload_mixes


class Mix(NamedTuple):
    benchmarks: Tuple[str, ...]
    policy: str
    write_fraction: float


# The three multiprogrammed mixes of the System.run workloads.
MIXES: Dict[str, Mix] = {
    # Memory-intensive, prefetch-friendly; the macrobench mix under
    # padc-rank, where the controller's scheduling round does most work.
    "mix4-intensive-rank": Mix(
        ("mcf_06", "libquantum_06", "lucas_00", "hmmer_06"), "padc-rank", 0.0
    ),
    # Prefetch-insensitive and cache-resident: long compute gaps, mostly
    # L2 hits, so the front end and the event kernel do most work.
    "mix4-cachefit": Mix(("eon_00", "gamess_06", "povray_06", "sjeng_06"), "padc", 0.0),
    # Prefetch-unfriendly with 20% stores: APD drops prefetches and
    # writebacks share the controller with reads.
    "mix4-unfriendly-stores": Mix(
        ("art_00", "galgel_00", "ammp_00", "milc_06"), "padc", 0.2
    ),
}

SWEEP = "sweep-short-jobs"
WORKLOADS: Tuple[str, ...] = tuple(MIXES) + (SWEEP,)

# The benchmarks of the sweep are drawn once with this seed; the run
# seed moves every simulation seed instead.  Redrawing the benchmarks
# per seed moved the summed simulated cycles 2.7x between seeds, which
# would hide any regression behind seed noise.
SWEEP_MIX_SEED = 0


class Size(NamedTuple):
    """How much work one operation does."""

    accesses: int  # L2 accesses per core in one System.run
    sweep_mixes: int  # 4-core mixes in the sweep (10 jobs per mix)
    sweep_accesses: int  # accesses per core of one sweep job


SIZES: Dict[str, Size] = {
    "full": Size(accesses=10_000, sweep_mixes=4, sweep_accesses=300),
    # For the benchmark's own smoke tests.
    "tiny": Size(accesses=300, sweep_mixes=1, sweep_accesses=100),
}


def mix_inputs(name: str):
    """``(config, profiles)`` for one mix; stores via ``dataclasses.replace``."""
    mix = MIXES[name]
    profiles = [
        dataclasses.replace(get_profile(bench), write_fraction=mix.write_fraction)
        for bench in mix.benchmarks
    ]
    return baseline_config(num_cores=len(profiles), policy=mix.policy), profiles


def build_system(config, profiles, seed: int, backend: str = "event") -> System:
    """One fresh System with every environment-sensitive knob pinned."""
    return System(
        config, profiles, seed=seed, backend=backend, check=False, telemetry=None
    )


def sweep_spec(seed: int, size: Size) -> CampaignSpec:
    """The serial sweep: fixed 4-core mixes x all six policies + alone runs."""
    mixes = workload_mixes(4, size.sweep_mixes, seed=SWEEP_MIX_SEED)
    workloads = [
        Workload.make([profile.name for profile in mix], seed=seed * 100 + index)
        for index, mix in enumerate(mixes)
    ]
    return CampaignSpec.build(
        name="perfbench-sweep",
        workloads=workloads,
        policies=list(ALL_POLICIES),
        accesses=size.sweep_accesses,
    )


def create_campaign(spec: CampaignSpec, directory, runtime):
    """Bind ``spec`` to a fresh jsonl campaign directory."""
    return api.Campaign.create(spec, directory=directory, backend="jsonl", runtime=runtime)
