"""Layer tracing for the traced run, from outside the package.

:class:`Tracer` wraps public names of each layer for the duration of a
``with`` block and restores them afterwards.  Boundaries crossed tens of
thousands of times per simulation (scheduling rounds, prefetcher
training, trace entries) keep a count and a total time; coarse
boundaries (System construction and run, campaign runs, exports) also
record a span ``(name, start, end, parent, run)`` in memory, written out
when the run ends.

If a wrapped name no longer exists, the metrics it feeds are listed in
:attr:`Tracer.missing` and the rest of the run goes on.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import measure

_ABSENT = object()
perf = time.perf_counter


class _TimedIterator:
    """Stands in for a per-core trace iterator; counts and times entries."""

    __slots__ = ("_next", "_tracer")

    def __init__(self, inner, tracer: "Tracer"):
        self._next = iter(inner).__next__
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        start = perf()
        try:
            entry = self._next()
        finally:
            self._tracer.add("workloads.gen_s", perf() - start)
        self._tracer.counts["workloads.entries"] += 1
        return entry


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.counts: Dict[str, int] = defaultdict(int)
        self.times: Dict[str, float] = defaultdict(float)
        self.spans: List[Dict] = []
        self.missing: set = set()
        self.notes: Dict[str, str] = {}
        self._stack: List[int] = []
        self._patches: List = []

    # -- accumulation ----------------------------------------------------------

    def add(self, name: str, seconds: float) -> None:
        self.times[name] += seconds

    def reset(self) -> None:
        self.counts.clear()
        self.times.clear()

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span; returns ``(result, seconds)``."""
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans)
        self.spans.append(
            {"id": span_id, "name": name, "parent": parent, "run": self.run_id}
        )
        self._stack.append(span_id)
        start = perf()
        try:
            return fn(*args, **kwargs), perf() - start
        finally:
            end = perf()
            self._stack.pop()
            self.spans[span_id].update(start=start, end=end)

    # -- patching --------------------------------------------------------------

    def patch(self, owner, name: str, wrap: Callable, feeds: List[str]) -> None:
        """Replace ``owner.name`` with ``wrap(original)`` until :meth:`close`."""
        original = getattr(owner, name, None)
        if original is None:
            self.missing.update(feeds)
            return
        self._patches.append((owner, name, vars(owner).get(name, _ABSENT)))
        setattr(owner, name, wrap(original))

    def close(self) -> None:
        for owner, name, raw in reversed(self._patches):
            if raw is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, raw)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def timed(self, time_name: str, count_name: Optional[str] = None):
        """Wrapper factory: count calls and add their time."""
        tracer = self

        def wrap(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                start = perf()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.times[time_name] += perf() - start
                    if count_name is not None:
                        tracer.counts[count_name] += 1

            return wrapper

        return wrap

    def install(self) -> None:
        from repro.campaign import executor, ledger, report
        from repro.controller.engine import DRAMControllerEngine
        from repro.runtime import parallel, store
        from repro.sim import system

        tracer = self

        def wrap_init(original):
            @functools.wraps(original)
            def __init__(sys_self, *args, **kwargs):
                _, seconds = tracer.span("System.__init__", original, sys_self, *args, **kwargs)
                tracer.times["sim.setup_s"] += seconds
                tracer._instrument(sys_self)

            return __init__

        def wrap_run(original):
            @functools.wraps(original)
            def run(sys_self, *args, **kwargs):
                result, seconds = tracer.span("System.run", original, sys_self, *args, **kwargs)
                tracer.times["sim.run_s"] += seconds
                measure.add_run(tracer.counts, sys_self, result)
                return result

            return run

        def wrap_ticker(original):
            @functools.wraps(original)
            def make_event_ticker(engine, *args, **kwargs):
                inner = original(engine, *args, **kwargs)
                counts = tracer.counts
                times = tracer.times

                def ticker(now):
                    start = perf()
                    try:
                        return inner(now)
                    finally:
                        times["controller.round_s"] += perf() - start
                        counts["controller.rounds"] += 1

                return ticker

            return make_event_ticker

        def wrap_get(original):
            @functools.wraps(original)
            def get(store_self, key):
                start = perf()
                try:
                    hit = original(store_self, key)
                finally:
                    tracer.times["runtime.store_get_s"] += perf() - start
                    tracer.counts["runtime.store_get_calls"] += 1
                if hit is not None:
                    tracer.counts["runtime.store_hits"] += 1
                return hit

            return get

        def spanned(name: str, time_name: Optional[str] = None):
            def wrap(original):
                @functools.wraps(original)
                def wrapper(*args, **kwargs):
                    result, seconds = tracer.span(name, original, *args, **kwargs)
                    if time_name is not None:
                        tracer.times[time_name] += seconds
                    return result

                return wrapper

            return wrap

        System = system.System
        self.patch(System, "__init__", wrap_init, ["sim.setup_s"])
        self.patch(
            System,
            "run",
            wrap_run,
            ["sim.run_s", "sim.host_us_per_access", "sim.kernel_cache_s"],
        )
        self.patch(
            DRAMControllerEngine,
            "make_event_ticker",
            wrap_ticker,
            ["controller.rounds", "controller.round_s", "controller.round_share"],
        )
        # The heap backends round through engine.tick instead; the traced
        # runs pin the event backend, so this only counts if that changes.
        self.patch(
            DRAMControllerEngine,
            "tick",
            self.timed("controller.round_s", "controller.rounds"),
            [],
        )
        self.patch(store.ResultStore, "get", wrap_get, ["runtime.store_get_s"])
        self.patch(
            store.ResultStore,
            "put",
            self.timed("runtime.store_put_s", "runtime.store_put_calls"),
            ["runtime.store_put_s", "runtime.store_put_calls"],
        )
        self.patch(
            parallel.SimJob,
            "key",
            self.timed("runtime.job_key_s", "runtime.job_key_calls"),
            ["runtime.job_key_s"],
        )
        self.patch(
            ledger.Ledger,
            "append",
            self.timed("campaign.ledger_append_s", "campaign.ledger_appends"),
            ["campaign.ledger_appends", "campaign.ledger_append_s"],
        )
        # api.Campaign.create and api.campaign both bind through here.
        self.patch(
            executor.Campaign,
            "create",
            lambda original: classmethod(
                spanned("Campaign.create", "campaign.create_s")(original.__func__)
            ),
            ["campaign.create_s"],
        )
        self.patch(
            report, "export", spanned("campaign.export"), []
        )

    def _instrument(self, system) -> None:
        """Wrap one System's trace iterators and prefetchers (instance level)."""
        for core in getattr(system, "cores", ()):
            if hasattr(core, "trace"):
                core.trace = _TimedIterator(core.trace, self)
            else:
                self.missing.update(["workloads.entries", "workloads.gen_s"])
        # System keeps its per-core prefetchers in a private list; it is
        # the one non-public name the tracer reads.
        prefetchers = getattr(system, "_prefetchers", None)
        if prefetchers is None:
            self.missing.update(["prefetch.on_access_calls", "prefetch.on_access_s"])
            return
        for prefetcher in prefetchers:
            if prefetcher is None or not hasattr(prefetcher, "on_access"):
                continue
            # An instance attribute turns off the event backend's fused
            # stream-prefetcher fork: the traced run times the class's own
            # on_access.
            self.notes["prefetch.path"] = (
                f"{type(prefetcher).__name__}.on_access wrapped on the instance; "
                "the event backend's fused stream fork is off in the traced run"
            )
            prefetcher.on_access = self.timed(
                "prefetch.on_access_s", "prefetch.on_access_calls"
            )(prefetcher.on_access)

    def span_records(self) -> List[Dict]:
        return [span for span in self.spans if "end" in span]
