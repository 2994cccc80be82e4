"""Span tracer and per-layer wrappers for the traced benchmark run.

The traced run replaces public hpfnav functions, looked up through their
module attributes (``hpf.relax``, ``plant.step``, ...), with wrappers that
open a span on entry and close it on exit.  Open spans form a stack, so each
span knows its parent.  A closing span is folded into per-layer aggregates
at once instead of being kept: a sweep closes about 1.5 million spans, and
the aggregates are all the per-layer metrics need.  The wrappers are
installed only for the body of a traced iteration and restored afterwards,
so untraced timings never carry their cost.
"""

from __future__ import annotations

import math
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of samples at or below it."""
    if not 0 < q <= 100:
        raise ValueError("q must lie in (0, 100]")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[math.ceil(q / 100.0 * len(ordered)) - 1]


@dataclass
class LayerStats:
    """Aggregate of every closed span of one wrapped function."""

    calls: int = 0
    busy_s: float = 0.0     # summed span durations
    self_s: float = 0.0     # summed durations minus the time child spans cover
    durations: array = field(default_factory=lambda: array("d"))
    extra: dict = field(default_factory=dict)   # counts read off results

    def add(self, key: str, amount) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


class Tracer:
    """Stack of open spans plus per-name aggregates of the closed ones."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, LayerStats] = {}
        self._open: list = []   # [name, start, time covered by closed children]

    def begin(self, name: str) -> None:
        self._open.append([name, self.clock(), 0.0])

    def end(self) -> LayerStats:
        """Close the innermost span and charge its duration to its parent."""
        name, start, covered = self._open.pop()
        duration = self.clock() - start
        if self._open:
            self._open[-1][2] += duration
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = LayerStats()
        st.calls += 1
        st.busy_s += duration
        st.self_s += duration - covered
        st.durations.append(duration)
        return st


@dataclass(frozen=True)
class Hook:
    """One function to trace: ``owner.attr`` is replaced while a traced body runs.

    ``observe(stats, args, result)`` reads counts off the call, such as the
    sweeps a solve took; it runs after the span has closed.
    """

    owner: object
    attr: str
    name: str
    observe: Callable | None = None


def _wrap(tracer: Tracer, fn, name: str, observe):
    def traced(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            st = tracer.end()
        if observe is not None:
            observe(st, args, result)
        return result

    traced.__wrapped__ = fn
    return traced


@contextmanager
def installed(tracer: Tracer, hooks):
    """Replace every hooked attribute with a traced wrapper; restore on exit."""
    saved = []
    try:
        for h in hooks:
            original = vars(h.owner)[h.attr]   # the plain function, also for methods
            setattr(h.owner, h.attr, _wrap(tracer, original, h.name, h.observe))
            saved.append((h, original))
        yield tracer
    finally:
        for h, original in reversed(saved):
            setattr(h.owner, h.attr, original)


def _count_solve(st, args, pot):
    st.add("sweeps", pot.sweeps)
    st.add("unconverged", 0 if pot.converged else 1)


def _count_examined(st, args, result):
    st.add("points_examined", result[1])


def _count_hops(st, args, ref):
    st.add("delta_l", ref.delta_l)


def _count_delivered(st, args, delay):
    st.add("delivered", 0 if delay is None else 1)


def layer_hooks():
    """Every function the per-layer metrics are read from."""
    from hpfnav import analysis, controller, fm, guidance, hpf, netloop, plant, vision, workspace

    return [
        Hook(workspace, "rasterize", "workspace.rasterize"),
        Hook(vision, "detect_edges", "vision.detect_edges"),
        Hook(hpf, "build_boundary", "hpf.build_boundary"),
        Hook(hpf, "relax", "hpf.relax", _count_solve),
        Hook(hpf, "gradient", "hpf.gradient"),
        Hook(hpf, "descend", "hpf.descend"),
        Hook(fm, "fm_arrival", "fm.fm_arrival"),
        Hook(fm, "fm_path", "fm.fm_path"),
        Hook(fm, "path_reference", "fm.path_reference", _count_examined),
        Hook(guidance, "guidance_step", "guidance.guidance_step", _count_hops),
        Hook(controller, "command", "controller.command"),
        Hook(controller, "body_errors", "controller.body_errors"),
        Hook(plant, "step", "plant.step"),
        Hook(plant, "collides", "plant.collides"),
        Hook(plant, "observe", "plant.observe"),
        Hook(netloop, "prepare", "netloop.prepare"),
        Hook(netloop, "run_loop", "netloop.run_loop"),
        Hook(netloop, "run_multi", "netloop.run_multi"),
        Hook(netloop.DelayLine, "push", "netloop.DelayLine.push", _count_delivered),
        Hook(analysis, "distance_error", "analysis.distance_error"),
        Hook(analysis, "ideal_path", "analysis.ideal_path"),
    ]


_SCALE = {"ms": 1e3, "us": 1e6}
_RATIOS = {"converged_ratio": ("unconverged", True), "delivered_ratio": ("delivered", False)}


def stat_value(st: LayerStats | None, stat: str) -> float:
    """One ``<stat>`` of a layer; a layer that was never called reads 0."""
    if st is None or st.calls == 0:
        return 0
    if stat == "calls":
        return st.calls
    if stat in ("busy_s", "self_s"):
        return getattr(st, stat)
    if stat[0] == "p" and stat[-3:] in ("_ms", "_us"):
        return percentile(st.durations, float(stat[1:-3])) * _SCALE[stat[-2:]]
    if stat in _RATIOS:
        key, complement = _RATIOS[stat]
        share = st.extra.get(key, 0) / st.calls
        return 1.0 - share if complement else share
    if stat == "delta_l_mean":
        return st.extra.get("delta_l", 0) / st.calls
    return st.extra.get(stat, 0)


def layer_metric(stats: dict, metric: str) -> float:
    """Value of a ``<module>.<function>.<stat>`` metric from tracer aggregates."""
    layer, stat = metric.rsplit(".", 1)
    return stat_value(stats.get(layer), stat)
