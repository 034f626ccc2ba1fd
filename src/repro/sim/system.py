"""Full-system assembly and the discrete-event simulation loop.

The :class:`System` builds the paper's testbed from a
:class:`~repro.params.SystemConfig` and a list of benchmark profiles (one
per core), then runs an event-driven loop with five event kinds:

* ``CORE`` — a core reaches its next L2 access;
* ``RETRY`` — a core retries an access that stalled on a full MSHR file;
* ``FILL`` — a DRAM service completes and fills the L2;
* ``TICK`` — a DRAM channel runs a scheduling round;
* ``INTERVAL`` — the accuracy-sampling interval elapses (PAR update,
  FDP adjustment).

Model notes (see DESIGN.md §5): L2 hit latency is assumed hidden by the
out-of-order window; the core stalls only when the ROB fills behind the
oldest outstanding demand miss.  Prefetches reserve no MSHRs for demands
beyond ``_DEMAND_MSHR_RESERVE`` entries.
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Union

from repro.cache.cache import CacheLine, L2Cache
from repro.cache.mshr import MSHR
from repro.controller.accuracy import PrefetchAccuracyTracker
from repro.controller.apd import AdaptivePrefetchDropper
from repro.controller.engine import DRAMControllerEngine
from repro.controller.policies import make_policy
from repro.controller.request import MemRequest
from repro.core.core import CoreState
from repro.dram.refresh import RefreshScheduler
from repro.core.trace import TraceEntry
from repro.params import SystemConfig, backend_from_env, resolve_backend
from repro.prefetch.base import make_prefetcher
from repro.prefetch.ddpf import DDPFFilter
from repro.prefetch.fdp import FDPController
from repro.sim.results import CoreResult, SimResult
from repro.telemetry.collector import NoopCollector, as_collector
from repro.validate.checker import InvariantChecker, check_enabled
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.resolve import resolve_workload
from repro.workloads.synthetic import SyntheticTraceGenerator

_CORE, _RETRY, _FILL, _TICK, _INTERVAL, _REFRESH = range(6)

# MSHR entries that prefetches may never occupy, kept free for demands.
_DEMAND_MSHR_RESERVE = 4

# Cores get disjoint line-address spaces (separate processes).
_CORE_ADDR_SHIFT = 54

# A workload per core: a benchmark name, a ``trace:<name-or-path>`` spec,
# a BenchmarkProfile, or a resolved repro.trace.TraceWorkload.
ProfileLike = Union[str, BenchmarkProfile, object]


class System:
    """One simulated CMP: cores, caches, prefetchers and the controller."""

    def __init__(
        self,
        config: SystemConfig,
        benchmarks: Sequence[ProfileLike],
        seed: int = 0,
        collect_service_times: bool = False,
        check: Optional[bool] = None,
        telemetry: Union[None, bool, NoopCollector] = None,
        scheduler: Optional[str] = None,
        backend: Optional[str] = None,
    ):
        if len(benchmarks) != config.num_cores:
            raise ValueError(
                f"{config.num_cores} cores but {len(benchmarks)} benchmarks"
            )
        self.config = config
        # Synthetic profiles and trace workloads, one per core — every
        # spelling (name, "trace:" spec, profile, TraceWorkload) funnels
        # through the shared resolver.
        self.profiles: List = [resolve_workload(workload) for workload in benchmarks]
        self.seed = seed
        self.collect_service_times = collect_service_times

        padc = config.padc
        self.prefetch_enabled = config.prefetcher.enabled and config.policy != "no-pref"
        self.tracker = PrefetchAccuracyTracker(
            num_cores=config.num_cores,
            interval=padc.accuracy_interval,
            promotion_threshold=padc.promotion_threshold,
            drop_thresholds=padc.drop_thresholds,
        )
        policy = make_policy(
            config.policy,
            tracker=self.tracker,
            use_urgency=padc.use_urgency,
            use_ranking=padc.use_ranking,
            num_cores=config.num_cores,
        )
        dropper = (
            AdaptivePrefetchDropper(self.tracker, padc.age_granularity)
            if config.policy in ("padc", "demand-first-apd")
            else None
        )
        # Simulation backend: the skip-ahead event loop by default, the
        # heap-scheduled optimized loop and the naive reference path on
        # request.  All three produce byte-identical results — the
        # golden-equivalence tests, the differential fuzzer and the bench
        # CLI's verify mode pin this (DESIGN.md §10–11).  Resolution
        # order: explicit ``backend=`` arg > legacy ``scheduler=`` arg >
        # ``config.backend`` > the environment (``$REPRO_BACKEND``, with
        # ``$REPRO_SCHED`` as a deprecated alias) > the package default.
        if backend is None:
            backend = scheduler or config.backend or backend_from_env()
        backend = resolve_backend(backend)
        self.backend = backend
        # Backwards-compatible alias: pre-PR-6 callers read ``scheduler``.
        self.scheduler = backend
        self.engine = DRAMControllerEngine(
            config.dram,
            policy,
            dropper=dropper,
            on_drop=self._on_drop,
            backend="reference" if backend == "reference" else "optimized",
        )

        if config.cache.shared:
            shared_cache = L2Cache(config.cache)
            shared_mshr = MSHR(config.cache.mshr_entries)
            self._caches = [shared_cache] * config.num_cores
            self._mshrs = [shared_mshr] * config.num_cores
        else:
            self._caches = [L2Cache(config.cache) for _ in range(config.num_cores)]
            self._mshrs = [
                MSHR(config.cache.mshr_entries) for _ in range(config.num_cores)
            ]

        self._prefetchers = []
        self._ddpf: List[Optional[DDPFFilter]] = []
        self._fdp: List[Optional[FDPController]] = []
        for core_id in range(config.num_cores):
            if self.prefetch_enabled:
                prefetcher = make_prefetcher(config.prefetcher)
            else:
                prefetcher = None
            self._prefetchers.append(prefetcher)
            filter_kind = config.prefetcher.filter_kind if prefetcher else None
            self._ddpf.append(DDPFFilter() if filter_kind == "ddpf" else None)
            self._fdp.append(
                FDPController(prefetcher) if filter_kind == "fdp" else None
            )

        self.cores: List[CoreState] = []
        self.results: List[CoreResult] = []
        for core_id, workload in enumerate(self.profiles):
            offset = (core_id + 1) << _CORE_ADDR_SHIFT
            if isinstance(workload, BenchmarkProfile):
                trace = SyntheticTraceGenerator(
                    workload, seed=seed + core_id
                ).generate(offset=offset)
            else:
                # TraceWorkload: deterministic file replay — the seed does
                # not perturb it, but the per-core offset contract holds.
                trace = workload.entries(offset=offset)
            self.cores.append(
                CoreState(core_id, config.core, trace, target_accesses=0)
            )
            self.results.append(CoreResult(core_id=core_id, benchmark=workload.name))

        self._heap: List = []
        self._seq = 0
        self._now = 0
        self._active_cores = config.num_cores
        self._tick_pending: List[Optional[int]] = [None] * config.dram.num_channels
        # Sequence stamps for the scalar (non-heap) tick events used by the
        # skip-ahead backend; unused (but kept allocated, for introspection
        # symmetry) under the heap backends.  ``_tick_stale`` remembers the
        # (time -> seq) of superseded arms whose time has not passed yet —
        # see _schedule_tick_event for why they can come back to life.
        self._tick_seq: List[int] = [0] * config.dram.num_channels
        self._tick_stale: List[Dict[int, int]] = [
            {} for _ in range(config.dram.num_channels)
        ]
        if backend == "event":
            # Scalar tick arming: the skip-ahead loop reads the pending
            # time directly instead of pushing TICK tuples through the
            # heap.  Bound as an instance attribute so the cold-path
            # helpers (_issue_writeback, _run_runahead, refresh) shared
            # with the heap backends transparently arm the scalar slot.
            self._schedule_tick = self._schedule_tick_event  # type: ignore[method-assign]
        # One wake queue per distinct MSHR file, prebuilt so the MSHR-full
        # stall path appends to an existing deque instead of paying a
        # setdefault + deque() allocation per stall (DESIGN.md §15).
        self._mshr_waiters: Dict[int, Deque[int]] = {}
        for mshr in self._mshrs:
            self._mshr_waiters.setdefault(id(mshr), deque())
        # Per-core structure tables for the inlined cache/ROB fast paths in
        # _handle_core/_handle_fill (refreshed at run() time in case a test
        # swapped a cache between construction and run).
        self._sets_by_core: List[List[Dict]] = [c._sets for c in self._caches]
        self._nsets_by_core: List[int] = [c.num_sets for c in self._caches]
        self._assoc_by_core: List[int] = [c.assoc for c in self._caches]
        self._rob_by_core: List[int] = [config.core.rob_size] * config.num_cores
        self._pf_service_pending: List[Dict[int, int]] = [
            {} for _ in range(config.num_cores)
        ]
        self._refresh: List[RefreshScheduler] = [
            RefreshScheduler.from_dram_config(config.dram)
            for _ in range(config.dram.num_channels)
        ]
        # Checked mode: audit conservation laws at interval boundaries and
        # end-of-sim.  ``check=None`` defers to the $REPRO_CHECK knob.
        if check is None:
            check = check_enabled()
        self.checker: Optional[InvariantChecker] = (
            InvariantChecker(self) if check else None
        )
        # Interval telemetry (DESIGN.md §9).  The per-tick hook is guarded
        # by ``_telemetry_on`` so the disabled path costs one branch; the
        # interval hooks run unconditionally (they are off the hot path).
        self.telemetry = as_collector(telemetry)
        self._telemetry_on = self.telemetry.enabled
        self._ran = False

    # -- event plumbing ------------------------------------------------------

    def _push(self, time: int, kind: int, arg) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, arg))

    def _schedule_tick(self, channel: int, time: int) -> None:
        pending = self._tick_pending[channel]
        if pending is not None and pending <= time:
            return
        self._tick_pending[channel] = time
        self._push(time, _TICK, channel)

    def _schedule_tick_event(self, channel: int, time: int) -> None:
        """Scalar tick arming for the skip-ahead backend.

        Byte-identity with the heap backends requires two things:

        * consuming one sequence number exactly where the heap version
          would have pushed a TICK tuple (sequence numbers break
          equal-time ties for *every* event, so the counters must
          advance in lock-step), including for arms that end up
          superseded;
        * honoring **revival**: the heap loop discards a popped tick
          tuple by comparing its *time* against the pending slot, so a
          superseded tuple whose time coincides with a later re-arm is
          picked up as the live tick — and fires with its *old* (lower)
          sequence number, ordering ahead of events armed in between.
          ``_tick_stale`` tracks superseded (time -> seq) so the scalar
          slot adopts that older stamp when a re-arm lands on it.
        """
        pending = self._tick_pending[channel]
        if pending is not None and pending <= time:
            return
        self._seq += 1
        stale = self._tick_stale[channel]
        if pending is not None and pending not in stale:
            # The first tuple pushed for a given time has the smallest
            # sequence number, which is the one that fires; keep it.
            stale[pending] = self._tick_seq[channel]
        revived = stale.get(time)
        self._tick_pending[channel] = time
        self._tick_seq[channel] = self._seq if revived is None else revived

    # -- public API ------------------------------------------------------------

    def run(
        self, max_accesses_per_core: int = 20_000, max_cycles: Optional[int] = None
    ) -> SimResult:
        """Run the simulation and return the collected results.

        Each core executes ``max_accesses_per_core`` L2 accesses of its
        trace (the stand-in for the paper's 200M-instruction Pinpoint
        slices); ``max_cycles`` is a safety bound.
        """
        if self._ran:
            raise RuntimeError(
                "System.run() called twice: a System holds run state (event "
                "heap, counters, trace cursors) and cannot be re-run; build "
                "a fresh System, or use repro.api.simulate() which does"
            )
        self._ran = True
        try:
            if self.backend == "event":
                from repro.sim.skipahead import run_event

                return run_event(self, max_accesses_per_core, max_cycles)
            return self._run_heap(max_accesses_per_core, max_cycles)
        finally:
            # The engine's drop callback and the event backend's scalar
            # tick arming are bound methods of this System: references
            # from the System back to itself.  A System cannot be re-run,
            # so drop them, leaving the finished graph acyclic: reference
            # counting frees it (trace generators and their prebuilt
            # entry lists included) as soon as the caller lets go,
            # without waiting for a garbage-collection pass.
            self.engine.on_drop = None
            self.__dict__.pop("_schedule_tick", None)

    def _run_heap(
        self, max_accesses_per_core: int, max_cycles: Optional[int]
    ) -> SimResult:
        """The heap-scheduled loop of the optimized and reference backends."""
        self.telemetry.on_start(self)
        for core in self.cores:
            core.target_accesses = max_accesses_per_core
            self._schedule_core_next(core, 0)
        self._push(self.tracker.interval, _INTERVAL, None)
        if self.config.dram.refresh_enabled:
            for channel_id, scheduler in enumerate(self._refresh):
                self._push(scheduler.next_refresh_after(0), _REFRESH, channel_id)

        # Refresh the per-core fast-path tables (a test may have swapped a
        # cache or MSHR object between construction and run).
        self._sets_by_core = [c._sets for c in self._caches]
        self._nsets_by_core = [c.num_sets for c in self._caches]
        self._assoc_by_core = [c.assoc for c in self._caches]
        for mshr in self._mshrs:
            self._mshr_waiters.setdefault(id(mshr), deque())

        # Hot loop: handlers, heap ops and the cycle cap are hoisted into
        # locals (hundreds of thousands of iterations).
        heap = self._heap
        heappop = heapq.heappop
        tick_pending = self._tick_pending
        handle_core = self._handle_core
        handle_fill = self._handle_fill
        handle_tick = self._handle_tick
        cycle_cap = (1 << 62) if max_cycles is None else max_cycles
        # The loop allocates no reference cycles; generational GC passes
        # over the (large, stable) heap/cache graphs are pure overhead, so
        # collection pauses are deferred to the end of the run — the same
        # policy the event backend applies (sim/skipahead.py).
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while heap and self._active_cores > 0:
                time, _seq, kind, arg = heappop(heap)
                self._now = time
                if time > cycle_cap:
                    break
                if kind == _CORE:
                    handle_core(arg, time, False)
                elif kind == _FILL:
                    handle_fill(arg, time)
                elif kind == _TICK:
                    # Only the earliest pending tick per channel is live; a
                    # popped event that no longer matches was superseded by an
                    # earlier tick whose wake chain already covers every
                    # serviceable bank, so handling it would be a no-op scan.
                    if tick_pending[arg] != time:
                        continue
                    tick_pending[arg] = None
                    handle_tick(arg, time)
                elif kind == _RETRY:
                    handle_core(arg, time, True)
                elif kind == _REFRESH:
                    self._handle_refresh(arg, time)
                else:
                    self._handle_interval(time)
        finally:
            if gc_was_enabled:
                gc.enable()
        return self._collect(max_cycles)

    # -- core events ----------------------------------------------------------

    def _schedule_core_next(self, core: CoreState, now: int) -> None:
        if core.accesses_done >= core.target_accesses:
            self._finish_core(core, now)
            return
        # Inlined core.next_entry() and exec_cycles(): one call per trace
        # entry each.
        if core.lookahead:
            entry = core.lookahead.popleft()
        else:
            entry = next(core.trace, None)
        if entry is None:
            self._finish_core(core, now)
            return
        core.pending_entry = entry
        width = core.retire_width
        self._seq += 1
        heapq.heappush(
            self._heap,
            (now + (entry.gap + width - 1) // width, self._seq, _CORE, core.core_id),
        )

    def _finish_core(self, core: CoreState, now: int) -> None:
        if not core.done:
            core.done = True
            core.finish_time = max(now, 1)
            self._active_cores -= 1

    def _handle_core(self, core_id: int, now: int, retry: bool) -> None:
        core = self.cores[core_id]
        if core.done:
            return
        entry = core.pending_entry
        if entry is None:
            return
        if retry:
            core.stall_cycles += now - core.stall_start
            core.stalled = False
            core.waiting_mshr = False
        else:
            core.instructions_issued += entry.gap
            core.loads += 1
            core.accesses_done += 1

        cache = self._caches[core_id]
        mshr = self._mshrs[core_id]
        line = entry.line_addr
        is_write = entry.is_write
        # Inlined fork of L2Cache.lookup (DESIGN.md §15) — the branch
        # bodies consume the line's fields directly, so no LookupResult is
        # ever built on the per-access path.
        cache_set = self._sets_by_core[core_id][line % self._nsets_by_core[core_id]]
        line_obj = cache_set.pop(line, None)
        if line_obj is not None:
            cache_set[line] = line_obj  # reinsert at the MRU end
            cache.demand_hits += 1
            if is_write:
                line_obj.dirty = True
            if not retry:
                core.l2_hits += 1
            if line_obj.prefetched and not line_obj.ever_used:
                line_obj.ever_used = True
                line_obj.prefetched = False
                cache.useful_prefetch_hits += 1
                self._count_useful(
                    line_obj.core_id,
                    line,
                    row_hit_fill=line_obj.row_hit_fill,
                    late=False,
                )
            prefetcher = self._prefetchers[core_id]
            if prefetcher is not None:
                candidates = prefetcher.on_access(line, True, pc=entry.pc)
                if candidates:
                    self._issue_prefetches(core_id, candidates, entry.pc, now)
        else:
            cache.demand_misses += 1
            if not retry:
                # FDP feedback counts architectural misses, so it shares the
                # retry guard: an access that stalled on a full MSHR file and
                # came back is still *one* miss, not two (and the pollution
                # filter probe is consuming, so it must not run twice either).
                core.l2_misses += 1
                fdp = self._fdp[core_id]
                if fdp is not None:
                    fdp.demand_misses += 1
                    if fdp.pollution_filter.check_miss(line):
                        fdp.pollution_misses += 1
            mshr_entries = mshr._entries
            mshr_entry = mshr_entries.get(line)
            if mshr_entry is not None:
                request = mshr_entry.request
                if request.is_prefetch:
                    request.promote()
                    # Re-key the request in the scheduler's selection heap
                    # (no-op if it already left the request buffer).
                    self.engine.note_promotion(request)
                    mshr_entry.promoted_late = True
                    self._count_useful(
                        request.core_id, line, row_hit_fill=None, late=True
                    )
                if is_write:
                    mshr_entry.dirty_on_fill = True
                mshr_entry.waiters.append(core_id)
                # Delete-then-set keeps the dict ordered by send time, the
                # invariant CoreState.rob_blocked()'s O(1) oldest read needs.
                od = core.outstanding_demand
                if line in od:
                    del od[line]
                od[line] = core.instructions_issued
            else:
                if len(mshr_entries) >= mshr.capacity:
                    core.stalled = True
                    core.waiting_mshr = True
                    core.stall_start = now
                    core.mshr_stalls += 1
                    self._mshr_waiters[id(mshr)].append(core_id)
                    return
                request = self.engine.build_request(line, core_id, False, now)
                mshr_entry = mshr.allocate(line, request)
                mshr_entry.dirty_on_fill = is_write
                mshr_entry.waiters.append(core_id)
                self.engine.enqueue_demand(request)
                self._schedule_tick(
                    request.channel, self.engine.earliest_service(request, now)
                )
                od = core.outstanding_demand
                if line in od:
                    del od[line]
                od[line] = core.instructions_issued
            prefetcher = self._prefetchers[core_id]
            if prefetcher is not None:
                candidates = prefetcher.on_access(line, False, pc=entry.pc)
                if candidates:
                    self._issue_prefetches(core_id, candidates, entry.pc, now)

        core.pending_entry = None
        # Inlined fork of CoreState.rob_blocked (first outstanding entry is
        # the oldest; see that method's ordering comment).
        od = core.outstanding_demand
        if od and core.instructions_issued - next(iter(od.values())) >= (
            self._rob_by_core[core_id]
        ):
            core.stalled = True
            core.stall_start = now
            if self.config.core.runahead:
                self._run_runahead(core, now)
        else:
            # Inlined _schedule_core_next (one call per access otherwise).
            if core.accesses_done >= core.target_accesses:
                self._finish_core(core, now)
                return
            if core.lookahead:
                nxt = core.lookahead.popleft()
            else:
                nxt = next(core.trace, None)
            if nxt is None:
                self._finish_core(core, now)
                return
            core.pending_entry = nxt
            width = core.retire_width
            self._seq += 1
            heapq.heappush(
                self._heap,
                (now + (nxt.gap + width - 1) // width, self._seq, _CORE, core_id),
            )

    # -- prefetch issue ---------------------------------------------------------

    def _issue_prefetches(
        self, core_id: int, candidates, pc: int, now: int
    ) -> None:
        cache = self._caches[core_id]
        mshr = self._mshrs[core_id]
        ddpf = self._ddpf[core_id]
        fdp = self._fdp[core_id]
        stats = self.results[core_id]
        prefetcher = self._prefetchers[core_id]
        engine = self.engine
        # Direct membership probes (cache.touch_for_prefetcher and
        # mshr.contains are pure presence checks) and bound-method hoists:
        # this loop runs for every candidate of every trigger.
        sets = cache._sets
        num_sets = cache.num_sets
        mshr_entries = mshr._entries
        mshr_cap = mshr.capacity - _DEMAND_MSHR_RESERVE
        build_request = engine.build_request
        enqueue_prefetch = engine.enqueue_prefetch
        earliest_service = engine.earliest_service
        schedule_tick = self._schedule_tick
        record_sent = self.tracker.record_sent
        rejected_tail = 0
        for index, candidate in enumerate(candidates):
            if candidate in sets[candidate % num_sets] or candidate in mshr_entries:
                continue
            if ddpf is not None and not ddpf.allow(candidate, pc):
                stats.pf_filtered += 1
                continue
            if len(mshr_entries) >= mshr_cap:
                stats.pf_mshr_rejected += len(candidates) - index
                rejected_tail = len(candidates) - index
                break
            request = build_request(candidate, core_id, True, now)
            if enqueue_prefetch(request):
                mshr.allocate(candidate, request)
                record_sent(core_id)
                stats.pf_sent += 1
                if fdp is not None:
                    fdp.sent += 1
                schedule_tick(request.channel, earliest_service(request, now))
            else:
                stats.pf_rejected_full += len(candidates) - index
                rejected_tail = len(candidates) - index
                break
        if (
            rejected_tail
            and prefetcher is not None
            and self.config.prefetcher.skipless
        ):
            # Optional skip-less mode: stream prefetchers re-attempt the
            # rejected lines on the next trigger instead of dropping them
            # (the paper's prefetcher drops them, losing coverage).
            prefetcher.rewind(rejected_tail)

    def _count_useful(
        self, core_id: int, line: int, row_hit_fill: Optional[bool], late: bool
    ) -> None:
        """A prefetch from ``core_id`` proved useful (PUC += 1)."""
        self.tracker.record_used(core_id)
        stats = self.results[core_id]
        stats.pf_used += 1
        if late:
            stats.pf_late += 1
        else:
            stats.prefetch_fills_used += 1
            if row_hit_fill:
                stats.useful_prefetch_row_hits += 1
            if self.collect_service_times:
                pending = self._pf_service_pending[core_id]
                service = pending.pop(line, None)
                if service is not None:
                    stats.useful_service_times.append(service)
        ddpf = self._ddpf[core_id]
        if ddpf is not None:
            ddpf.train(line, useful=True)
        fdp = self._fdp[core_id]
        if fdp is not None:
            fdp.used += 1
            if late:
                fdp.late += 1

    # -- runahead execution (paper §6.14) ------------------------------------------

    def _run_runahead(self, core: CoreState, now: int) -> None:
        """Issue future accesses as runahead requests during a stall."""
        cache = self._caches[core.core_id]
        mshr = self._mshrs[core.core_id]
        prefetcher = self._prefetchers[core.core_id]
        entries = core.peek_ahead(self.config.core.runahead_max_depth)
        for entry in entries:
            line = entry.line_addr
            if cache.touch_for_prefetcher(line) or mshr.contains(line):
                continue
            if mshr.occupancy >= mshr.capacity - _DEMAND_MSHR_RESERVE:
                break
            request = self.engine.build_request(
                line, core.core_id, False, now, is_runahead=True
            )
            mshr.allocate(line, request)
            self.engine.enqueue_demand(request)
            self._schedule_tick(
                request.channel, self.engine.earliest_service(request, now)
            )
            core.runahead_issued += 1
            if prefetcher is not None:
                # Only-train policy: existing streams keep training, no new
                # allocations (paper §6.14, [18]).
                candidates = prefetcher.on_access(
                    line, was_hit=False, pc=entry.pc, allocate=False
                )
                if candidates:
                    self._issue_prefetches(core.core_id, candidates, entry.pc, now)

    # -- DRAM events --------------------------------------------------------------

    def _handle_tick(self, channel: int, now: int) -> None:
        if self._telemetry_on:
            self.telemetry.on_tick(self, channel, now)
        serviced, next_wake = self.engine.tick(channel, now)
        if serviced:
            heap = self._heap
            seq = self._seq
            for request in serviced:
                seq += 1
                heapq.heappush(heap, (request.completion, seq, _FILL, request))
            self._seq = seq
        if next_wake is not None:
            self._schedule_tick(channel, max(next_wake, now + 1))

    def _handle_fill(self, request: MemRequest, now: int) -> None:
        core_id = request.core_id
        mshr = self._mshrs[core_id]
        stats = self.results[core_id]
        line = request.line_addr
        if request.is_write:
            # Writeback completion: the data left the chip; nothing fills.
            stats.writeback_fills += 1
            return
        # Inlined fork of MSHR.free.
        mshr_entries = mshr._entries
        mshr_entry = mshr_entries.pop(line, None)
        if mshr_entry is not None:
            mshr.total_freed += 1
        row_hit = bool(request.row_hit_service)

        is_prefetch = request.is_prefetch
        if is_prefetch:
            stats.prefetch_fills += 1
            if row_hit:
                stats.prefetch_row_hits += 1
            if self.collect_service_times:
                self._pf_service_pending[core_id][line] = now - request.arrival
        elif request.promoted:
            stats.promoted_fills += 1
            if row_hit:
                stats.promoted_row_hits += 1
        elif request.is_runahead:
            stats.runahead_fills += 1
            if row_hit:
                stats.demand_row_hits += 1
        else:
            stats.demand_fills += 1
            if row_hit:
                stats.demand_row_hits += 1

        # Inlined fork of L2Cache.fill (DESIGN.md §15) — victim fields are
        # consumed right here, so no EvictionInfo is built.  The new line
        # lands before the victim's side effects run, matching
        # fill-then-handle-eviction order.
        dirty_fill = bool(mshr_entry is not None and mshr_entry.dirty_on_fill)
        cache_set = self._sets_by_core[core_id][line % self._nsets_by_core[core_id]]
        resident = cache_set.pop(line, None)
        if resident is not None:
            cache_set[line] = resident  # reinsert at the MRU end
            if dirty_fill:
                resident.dirty = True
        else:
            victim = None
            if len(cache_set) >= self._assoc_by_core[core_id]:
                victim_addr = next(iter(cache_set))
                victim = cache_set.pop(victim_addr)
            cache_set[line] = CacheLine(is_prefetch, core_id, row_hit, dirty_fill)
            if victim is not None:
                if victim.dirty:
                    self._issue_writeback(victim.core_id, victim_addr, now)
                if victim.prefetched and not victim.ever_used:
                    self.results[victim.core_id].pf_evicted_unused += 1
                    self._note_unused_prefetch(victim.core_id, victim_addr)
                elif is_prefetch:
                    fdp = self._fdp[core_id]
                    if fdp is not None:
                        fdp.pollution_filter.record_eviction(victim_addr)

        if mshr_entry is not None and mshr_entry.waiters:
            waiters = mshr_entry.waiters
            if len(waiters) == 1:
                # Single waiter (the overwhelmingly common case): skip the
                # order-preserving dedupe dict allocation entirely.
                waiter = self.cores[waiters[0]]
                waiter.outstanding_demand.pop(line, None)
                self._maybe_resume(waiter, now)
            else:
                # Order-preserving dedupe: a core can appear twice (demand
                # then retry), and wake order must not depend on hash order.
                for waiter_id in dict.fromkeys(waiters):
                    waiter = self.cores[waiter_id]
                    waiter.outstanding_demand.pop(line, None)
                    self._maybe_resume(waiter, now)
        # Inlined fork of _wake_mshr_waiters (the drop path wakes through
        # the shared method).
        mshr_waiters = self._mshr_waiters.get(id(mshr))
        if mshr_waiters and len(mshr_entries) < mshr.capacity:
            self._push(now, _RETRY, mshr_waiters.popleft())

    def _issue_writeback(self, core_id: int, line: int, now: int) -> None:
        """Send a dirty evicted line back to DRAM.

        Writebacks travel through an (unbounded) write buffer rather than
        the MSHR file, schedule as demands, and wake nobody on completion.
        """
        request = self.engine.build_request(
            line, core_id, False, now, is_write=True
        )
        self.engine.enqueue_demand(request)
        self._schedule_tick(
            request.channel, self.engine.earliest_service(request, now)
        )

    def _note_unused_prefetch(self, core_id: int, line: int) -> None:
        """A prefetched line left the cache (or was dropped) unused."""
        ddpf = self._ddpf[core_id]
        if ddpf is not None:
            ddpf.train(line, useful=False)
        if self.collect_service_times:
            pending = self._pf_service_pending[core_id]
            service = pending.pop(line, None)
            if service is not None:
                self.results[core_id].useless_service_times.append(service)

    def _maybe_resume(self, core: CoreState, now: int) -> None:
        if (
            core.stalled
            and not core.waiting_mshr
            and not core.done
            and not core.rob_blocked()
        ):
            core.stall_cycles += now - core.stall_start
            core.stalled = False
            self._schedule_core_next(core, now)

    def _wake_mshr_waiters(self, mshr: MSHR, now: int) -> None:
        waiters = self._mshr_waiters.get(id(mshr))
        if not waiters or mshr.full:
            return
        core_id = waiters.popleft()
        self._push(now, _RETRY, core_id)

    def _on_drop(self, request: MemRequest) -> None:
        """APD dropped a prefetch: invalidate its MSHR entry (paper §4.4)."""
        core_id = request.core_id
        self._mshrs[core_id].free(request.line_addr)
        self.results[core_id].pf_dropped += 1
        self._note_unused_prefetch(core_id, request.line_addr)
        self._wake_mshr_waiters(self._mshrs[core_id], self._now)

    def _handle_refresh(self, channel_id: int, now: int) -> None:
        scheduler = self._refresh[channel_id]
        done = scheduler.apply(self.engine.channels[channel_id], now)
        self._schedule_tick(channel_id, done)
        if self._active_cores > 0:
            self._push(scheduler.next_refresh_after(now), _REFRESH, channel_id)

    # -- interval events -------------------------------------------------------------

    def _handle_interval(self, now: int) -> None:
        if self.checker is not None:
            # Audit before end_interval resets PSC/PUC: the checker compares
            # the live interval counters against the per-core stat deltas.
            self.checker.on_interval(now)
        # Telemetry brackets the PAR recomputation: the pre-hook reads the
        # interval's live PSC/PUC, the post-hook the derived PAR state.
        self.telemetry.on_interval_pre(self, now)
        self.tracker.end_interval()
        # New PAR/threshold values: invalidate cached priority keys and
        # force the APD drop deadlines to be re-derived.
        self.engine.note_interval()
        for fdp in self._fdp:
            if fdp is not None:
                fdp.adjust()
        self.telemetry.on_interval_post(self, now)
        if self._active_cores > 0:
            self._push(now + self.tracker.interval, _INTERVAL, None)

    # -- results --------------------------------------------------------------------

    def _collect(self, max_cycles: Optional[int]) -> SimResult:
        end_time = self._now if max_cycles is None else min(self._now, max_cycles)
        for core, stats in zip(self.cores, self.results):
            if not core.done:
                # Charge an unfinished stall up to the end of simulation.
                if core.stalled:
                    core.stall_cycles += max(0, end_time - core.stall_start)
                core.finish_time = max(end_time, 1)
            stats.instructions = core.instructions_retired
            stats.cycles = core.finish_time
            stats.loads = core.loads
            stats.stall_cycles = core.stall_cycles
            stats.l2_hits = core.l2_hits
            stats.l2_misses = core.l2_misses
            stats.mshr_stalls = core.mshr_stalls
        engine_stats = self.engine.stats
        total_row_hits = sum(
            bank.hits for channel in self.engine.channels for bank in channel.banks
        )
        total_accesses = sum(
            bank.total_accesses
            for channel in self.engine.channels
            for bank in channel.banks
        )
        if self.checker is not None:
            self.checker.on_end(end_time)
        trace = self.telemetry.finalize(self, end_time)
        return SimResult(
            policy=self.config.policy,
            cores=self.results,
            total_cycles=max((core.finish_time for core in self.cores), default=0),
            bus_traffic_lines=self.engine.total_lines_transferred(),
            row_buffer_hit_rate=(
                total_row_hits / total_accesses if total_accesses else 0.0
            ),
            dropped_prefetches=engine_stats.dropped_prefetches,
            prefetches_rejected_full=engine_stats.prefetches_rejected_full,
            demand_overflows=engine_stats.demand_overflows,
            accuracy_history=[list(h) for h in self.tracker.history],
            trace=trace,
        )


def simulate(
    config: SystemConfig,
    benchmarks: Sequence[ProfileLike],
    max_accesses_per_core: int = 20_000,
    *,
    seed: int = 0,
    max_cycles: Optional[int] = None,
    collect_service_times: bool = False,
    check: Optional[bool] = None,
    telemetry: Union[None, bool, NoopCollector] = None,
    scheduler: Optional[str] = None,
    backend: Optional[str] = None,
) -> SimResult:
    """Build a :class:`System` and run it — the one-call entry point.

    The tuning knobs are keyword-only.  ``check=True`` (or
    ``$REPRO_CHECK=1`` with ``check=None``) runs the simulation under the
    :mod:`repro.validate` invariant auditor; ``telemetry=True`` (or a
    collector instance) attaches an interval-sampled
    :class:`~repro.telemetry.trace.SimTrace` to the result.
    ``backend`` selects the simulation loop (``"event"``, ``"optimized"``
    or ``"reference"``; the legacy ``scheduler`` spelling is honored for
    the latter two) — all backends produce byte-identical results.
    """
    system = System(
        config,
        benchmarks,
        seed=seed,
        collect_service_times=collect_service_times,
        check=check,
        telemetry=telemetry,
        scheduler=scheduler,
        backend=backend,
    )
    return system.run(max_accesses_per_core, max_cycles=max_cycles)
