"""Layer timers for the traced run, installed from the benchmark's side.

Each timer wraps one public function of a program layer (a class method
or a module function, at every module that binds the name) and adds the
wall time of its outermost calls to the layer's total: a call the same
layer makes into itself — a fused plan delegating to its interpreted
plan, say — is not counted twice.  Totals live in memory and are read
once the run is over.  Nothing here is active in an untraced run except
:class:`StepClock`, whose two clock reads per step are the end-to-end
``Model.step`` boundary.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from typing import Dict, List, Tuple

_perf = time.perf_counter

#: (module, class or None, attribute, layer) for every timed call site
LAYER_SITES: List[Tuple[str, object, str, str]] = [
    ("repro.systems.system", "System", "rhs", "systems.rhs"),
    ("repro.vlasov.modal_solver", "VlasovModalSolver", "rhs", "vlasov.rhs"),
    ("repro.engine.plan", "ExecutionPlan", "apply", "engine.apply"),
    ("repro.engine.fused", "FusedPlan", "apply", "engine.apply"),
    ("repro.engine.fused", "FusedPlan", "apply_trusted", "engine.apply"),
    ("repro.moments.calc", "MomentCalculator", "compute", "moments"),
    ("repro.moments.calc", "MomentCalculator", "current_density", "moments"),
    ("repro.moments.calc", "MomentCalculator", "charge_density", "moments"),
    ("repro.moments.calc", "MomentCalculator", "particle_energy", "moments"),
    ("repro.moments.calc", "MomentCalculator", "number", "moments"),
    ("repro.fields.maxwell", "MaxwellSolver", "rhs", "fields.maxwell"),
    ("repro.fields.poisson", "Poisson1D", "solve", "fields.poisson"),
    ("repro.collisions.lbo", "LBOCollisions", "rhs", "collisions.rhs"),
    ("repro.collisions.lbo", "LBOCollisions", "__init__", "collisions.build"),
    ("repro.diagnostics.energy", "EnergyHistory", "__call__", "diagnostics.record"),
    ("repro.io.checkpoint", None, "save_checkpoint", "io.checkpoint"),
    ("repro.runtime.driver", None, "save_checkpoint", "io.checkpoint"),
    ("repro.projection", None, "project_phase_function", "projection.ic"),
    ("repro.systems.blocks", None, "project_phase_function", "projection.ic"),
]

#: modules that bind ``get_vlasov_kernels`` (kernel generation is timed on
#: registry misses only)
KERNEL_SITES = (
    "repro.kernels.registry",
    "repro.kernels",
    "repro.vlasov.modal_solver",
    "repro.collisions.lbo",
    "repro",
)


def mults_per_step(app, stages: int = 3) -> float:
    """Exact-nonzero multiplication model (paper Fig. 1) of one SSP-RK3
    step: per-cell Vlasov update multiplications x phase cells x stages."""
    from repro.kernels.flops import modal_update_multiplications

    total = 0
    for blk in app.blocks:
        per_cell = modal_update_multiplications(blk.solver.kernels)["total"]
        total += per_cell * blk.phase_grid.num_cells
    return float(total * stages)


class StepClock:
    """Start/end stamps of every ``Model.step`` call, serial or sharded."""

    def __init__(self):
        self.spans: List[Tuple[float, float]] = []

    def install(self) -> None:
        from repro.dist.sharded import ShardedApp
        from repro.systems.system import System

        for cls in (System, ShardedApp):
            cls.step = self._wrap(cls.step)

    def _wrap(self, fn):
        spans = self.spans

        @functools.wraps(fn)
        def step(*args, **kwargs):
            t0 = time.monotonic()
            out = fn(*args, **kwargs)
            spans.append((t0, time.monotonic()))
            return out

        return step

    def mark(self) -> int:
        return len(self.spans)

    def step_ms(self, start: int, stop: int = None) -> List[float]:
        return [(b - a) * 1e3 for a, b in self.spans[start:stop]]


class LayerTimers:
    """Inclusive wall time and call counts per layer name."""

    def __init__(self):
        self.ms: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.checkpoint_bytes = 0
        self._depth: Dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        wrapped: Dict[int, object] = {}
        for modname, clsname, attr, layer in LAYER_SITES:
            owner = importlib.import_module(modname)
            if clsname is not None:
                owner = getattr(owner, clsname)
            fn = getattr(owner, attr)
            # one wrapper per function object, shared by every binding site
            key = id(fn)
            if key not in wrapped:
                wrapped[key] = self._wrap(fn, layer, attr == "save_checkpoint")
            setattr(owner, attr, wrapped[key])
        registry = importlib.import_module("repro.kernels.registry")
        timed_get = self._wrap_kernels(registry.get_vlasov_kernels, registry)
        for modname in KERNEL_SITES:
            setattr(importlib.import_module(modname), "get_vlasov_kernels", timed_get)

    def _wrap(self, fn, layer: str, count_bytes: bool = False):
        ms, calls, depth = self.ms, self.calls, self._depth
        timers = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if depth[layer]:
                return fn(*args, **kwargs)
            depth[layer] += 1
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = (_perf() - t0) * 1e3
                ms[layer] += elapsed
                calls[layer] += 1
                depth[layer] -= 1
                if layer == "engine.apply" and depth["vlasov.rhs"]:
                    # the share the Fig. 1 multiplication model counts
                    ms["engine.apply_vlasov"] += elapsed
                if count_bytes:
                    try:
                        timers.checkpoint_bytes += os.path.getsize(args[0])
                    except (OSError, TypeError, IndexError):
                        pass

        return timed

    def _wrap_kernels(self, fn, registry):
        ms, calls = self.ms, self.calls

        @functools.wraps(fn)
        def get_vlasov_kernels(*args, **kwargs):
            before = registry.registry_stats()["bundles"]
            t0 = _perf()
            out = fn(*args, **kwargs)
            if registry.registry_stats()["bundles"] > before:
                ms["kernels.generate"] += (_perf() - t0) * 1e3
                calls["kernels.generate"] += 1
            return out

        return get_vlasov_kernels

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        return {
            "ms": dict(self.ms),
            "calls": dict(self.calls),
            "checkpoint_bytes": self.checkpoint_bytes,
        }

    @staticmethod
    def delta(after: dict, before: dict) -> dict:
        return {
            "ms": {k: v - before["ms"].get(k, 0.0) for k, v in after["ms"].items()},
            "calls": {
                k: v - before["calls"].get(k, 0) for k, v in after["calls"].items()
            },
            "checkpoint_bytes": after["checkpoint_bytes"] - before["checkpoint_bytes"],
        }
