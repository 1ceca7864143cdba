"""Spans around the calls into each lindmet layer, recorded from outside.

:meth:`Tracer.installed` replaces each traced name at the place where its
caller looks it up (a module global or a class attribute) and restores it on
exit. Spans are ``[name, start, end, parent]`` records kept in memory; a span's
self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.slices: dict[int, int] = defaultdict(int)  # generator size m -> slices propagated
        self.searches: list[list] = []  # per multi_start call: (fun, evals, converged) per start
        self._stack: list[int] = []

    def call(self, name, fn, args=(), kwargs=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = self.clock()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            rec[2] = self.clock()
            self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def _kernel(self, fn):
        def propagate_schedule(L0, ctrls, amps, *args, **kwargs):
            m = len(L0)
            self.slices[m] += len(amps)
            return self.call(f"kern.propagate.m{m}", fn, (L0, ctrls, amps) + args, kwargs)
        return propagate_schedule

    def _multi_start(self, fn):
        def multi_start(objective, *args, **kwargs):
            self.searches.append([])
            objective = self.wrap("schemes.objective", objective)
            return self.call("optimizer.multi_start", fn, (objective,) + args, kwargs)
        return multi_start

    def _nelder_mead(self, fn):
        def nelder_mead(*args, **kwargs):
            res = self.call("optimizer.nelder_mead", fn, args, kwargs)
            if self.searches:
                self.searches[-1].append((res.fun, res.evals, res.converged))
            return res
        return nelder_mead

    @contextmanager
    def installed(self):
        """Trace lindmet's layer boundaries for the duration of the block."""
        from lindmet import _kern, cli, harness, optimizer, schemes
        from lindmet.propagation import SlicedDynamics

        named = lambda name: lambda fn: self.wrap(name, fn)
        targets = [
            (_kern, "propagate_schedule", self._kernel),
            (SlicedDynamics, "evolve", named("propagation.evolve")),
            (SlicedDynamics, "evolve_vectorized", named("propagation.evolve_vectorized")),
            (schemes, "qfi_eigen", named("metrology.qfi_eigen")),
            (schemes, "drho_domega", named("metrology.drho_domega")),
            (schemes, "multi_start", self._multi_start),
            (optimizer, "nelder_mead", self._nelder_mead),
            (harness, "run_scheme", named("schemes.run_scheme")),
            (cli, "run_experiment", named("harness.run_experiment")),
            (cli, "load_run_config", named("config.load_run_config")),
            (schemes, "build_scenario", named("channels.build_scenario")),
        ]
        saved = []
        try:
            for owner, attr, make in targets:
                original = vars(owner).get(attr)
                if original is not None:  # a layer that no longer exists is not traced
                    saved.append((owner, attr, original))
                    setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            fh.writelines(f"{n},{s!r},{e!r},{p}\n" for n, s, e, p in self.spans)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans recorded on one thread nest, so a span's children never overlap and
    their summed durations are the time they cover.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - c for (_, start, end, _), c in zip(spans, child)]


def aggregate(spans) -> tuple[dict, dict]:
    """Calls and total self time per span name."""
    calls, selfs = defaultdict(int), defaultdict(float)
    for (name, *_), own in zip(spans, self_times(spans)):
        calls[name] += 1
        selfs[name] += own
    return calls, selfs


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and self times of one traced pass (``cli.main`` roots)."""
    calls, selfs = aggregate(tracer.spans)
    wall = sum(e - s for name, s, e, _ in tracer.spans if name == "cli.main")
    kern = [n for n in calls if n.startswith("kern.propagate.m")]
    kern_calls = sum(calls[n] for n in kern)
    kern_self = sum(selfs[n] for n in kern)

    def us_per_slice(m):
        n = tracer.slices.get(m, 0)
        return selfs[f"kern.propagate.m{m}"] / n * 1e6 if n else 0.0

    searches = [s for s in tracer.searches if s]
    evals = sum(e for s in searches for _, e, _ in s)
    winner_evals = sum(min(s, key=lambda r: r[0])[1] for s in searches)
    spreads = []
    for s in searches:
        qfis = [-fun for fun, _, _ in s]
        if max(qfis) > 0:
            spreads.append((max(qfis) - min(qfis)) / max(qfis))
    qfi_calls = calls["metrology.qfi_eigen"]
    return {
        "kern.propagate.calls": kern_calls,
        "kern.propagate.self_s": kern_self,
        "kern.m4.slices": tracer.slices.get(4, 0),
        "kern.m4.us_per_slice": us_per_slice(4),
        "kern.m16.slices": tracer.slices.get(16, 0),
        "kern.m16.us_per_slice": us_per_slice(16),
        "kern.share": kern_self / wall if wall else 0.0,
        "propagation.evolve.calls": calls["propagation.evolve"],
        "propagation.evolve.self_s": selfs["propagation.evolve"],
        "propagation.evolve_vectorized.self_s": selfs["propagation.evolve_vectorized"],
        "metrology.qfi_eigen.calls": qfi_calls,
        "metrology.qfi_eigen.self_s": selfs["metrology.qfi_eigen"],
        "metrology.drho_domega.calls": calls["metrology.drho_domega"],
        "metrology.drho_domega.self_s": selfs["metrology.drho_domega"],
        "metrology.propagations_per_qfi": kern_calls / qfi_calls if qfi_calls else 0.0,
        "schemes.objective.calls": calls["schemes.objective"],
        "schemes.objective.self_s": selfs["schemes.objective"],
        "schemes.run_scheme.self_s": selfs["schemes.run_scheme"],
        "optimizer.evals": evals,
        "optimizer.self_s": selfs["optimizer.nelder_mead"] + selfs["optimizer.multi_start"],
        "optimizer.starts": sum(len(s) for s in searches),
        "optimizer.converged_starts": sum(c for s in searches for _, _, c in s),
        "optimizer.winner_eval_frac": winner_evals / evals if evals else 0.0,
        "optimizer.start_spread": statistics.median(spreads) if spreads else 0.0,
        "harness.self_s": selfs["harness.run_experiment"],
    }
