"""Guard of the names the benchmark's traced run and sweep capture rely on.

perfbench/spans.py replaces hpfnav functions by name while a traced body
runs, and perfbench/workloads.py captures every run of a sweep by wrapping
``netloop.run_loop``.  A fast path that renames one of those functions, or
calls around the module attribute, breaks ``--trace 1`` with a KeyError or
leaves the sweep capture empty.  These tests load spans.py by path, the way
test_digest.py loads tools/digest.py.
"""

import importlib.util
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from hpfnav import analysis, fm, netloop
from hpfnav.workspace import WorldPose, load_scenario

ROOT = Path(__file__).resolve().parents[1]


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_still_exists_by_name():
    hooks = _spans_module().layer_hooks()
    assert hooks
    for hook in hooks:
        assert callable(vars(hook.owner)[hook.attr]), hook.name


def test_path_reference_reports_every_point_examined():
    path = np.linspace([0.0, 0.0], [1.0, 0.5], 7)
    point, examined = fm.path_reference(fm.Track(path), WorldPose(0.3, 0.1, 0.0), 0.2)
    assert examined == len(path)
    assert point in [tuple(p) for p in path.tolist()]


def test_sweep_runs_each_row_through_the_module_attribute(monkeypatch):
    calls = []
    original = netloop.run_loop

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(netloop, "run_loop", counted)
    sc = replace(load_scenario(ROOT / "scenarios" / "open.json"), timeout_s=3.0)
    result = analysis.sweep(sc, [0.0, 0.3], [0, 1], planners=("hpf", "fm"))
    assert len(calls) == len(result.rows) == 8
    assert [(c.planner, c.delay.constant_s, c.seed) for c in calls] == \
        [(r.planner, r.delay, r.seed) for r in result.rows]
    assert all(math.isfinite(r.max_err) for r in result.rows)
