"""One simulation run in a fresh process: the unit every simulation
workload is timed by.

Usage: ``python perfbench/sim_child.py <config.json> <report.json>``
(started by ``run.py``; the config names the workload, seed, step count,
output directory and mode).

Modes:

* ``timed``  — build the workload's spec, run it through
  :class:`repro.runtime.Driver` into an output directory, stamp every
  ``Model.step``, then check the outputs;
* ``setup``  — the same launch, stopped after the first step (set-up
  repeats);
* ``prime``  — a short ``timed`` run over a cold plan cache that also
  stores the kernel bundles the workload loads instead of generating.

With ``trace`` set, layer timers (``layers.py``) wrap the program's public
layer functions for the whole run.
"""

import json
import os
import pickle
import sys
import time
from dataclasses import replace
from pathlib import Path

_t_import = time.perf_counter()
import repro  # noqa: E402,F401

IMPORT_MS = (time.perf_counter() - _t_import) * 1e3

import numpy as np  # noqa: E402

from repro.dist.plan import ShardPlan  # noqa: E402
from repro.engine.backend import get_backend  # noqa: E402
from repro.io.checkpoint import load_checkpoint  # noqa: E402
from repro.kernels import registry  # noqa: E402
from repro.runtime.driver import Driver  # noqa: E402
from repro.runtime.spec import ObservabilitySpec  # noqa: E402
from repro.systems.registry import build_system  # noqa: E402
from repro.vlasov.quadrature_solver import VlasovQuadratureSolver  # noqa: E402

import common  # noqa: E402
import specs  # noqa: E402
from layers import LayerTimers, StepClock, mults_per_step  # noqa: E402

STAGES = 3  # SSP-RK3 right-hand sides per step
#: relative particle-number change allowed over a run (roundoff only)
NUMBER_RTOL = 1e-11
#: modal-vs-quadrature Vlasov RHS difference allowed, relative to max|f|:
#: roundoff measures ~1e-14 here, while under-integrating the quadrature
#: (3 instead of 4 Gauss points, i.e. aliasing) gives >= 3e-12
ALIAS_FREE_RTOL = 1e-12
CHECKPOINT_LOADS = 25


def build_spec(cfg):
    wl, seed, steps = cfg["workload"], cfg["seed"], cfg["steps"]
    if wl == "table1_2x3v":
        spec = specs.table1_2x3v(seed, steps)
    elif wl == "weibel_2x2v_sharded":
        spec = specs.weibel_2x2v_sharded(seed, steps)
    elif wl == "shock_1x1v":
        spec = specs.shock_1x1v(seed, steps, cfg["checkpoint_interval"])
    else:
        raise SystemExit(f"unknown simulation workload {wl!r}")
    if cfg.get("observe"):
        spec = replace(spec, observability=ObservabilitySpec(mode="summary"))
    return spec


def load_kernel_bundles(keys):
    """Put the bundles a priming run stored into the process registry (the
    registry is a plain dict keyed like ``get_vlasov_kernels``)."""
    for key in keys:
        path = common.KERNELS / ("-".join(map(str, key)) + ".pkl")
        with open(path, "rb") as fh:
            registry._CACHE[tuple(key)] = pickle.load(fh)


def store_kernel_bundles(keys):
    common.KERNELS.mkdir(parents=True, exist_ok=True)
    for key in keys:
        bundle = registry.get_vlasov_kernels(*key)
        path = common.KERNELS / ("-".join(map(str, key)) + ".pkl")
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            pickle.dump(bundle, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)


def numbers(app, state):
    return {
        blk.name: float(app.moments[blk.name].number(state[f"f/{blk.name}"]))
        for blk in app.blocks
    }


def copy_state(app):
    return {k: np.array(v, copy=True) for k, v in app.state().items()}


def child_pids(app):
    names = getattr(app, "obs_process_names", None)
    return list(names()) if callable(names) else []


# --------------------------------------------------------------------- #
def run(cfg) -> dict:
    mode = cfg["mode"]
    clock = StepClock()
    clock.install()
    timers = LayerTimers() if cfg.get("trace") else None
    if timers is not None:
        timers.install()
    t0 = time.perf_counter()
    if cfg.get("kernel_bundles") and mode != "prime":
        load_kernel_bundles(cfg["kernel_bundles"])
    kernel_load_s = time.perf_counter() - t0
    spec = build_spec(cfg)
    outdir = Path(cfg["outdir"])

    drv = Driver(spec, outdir=outdir)
    app = drv.app
    initial = copy_state(app) if mode != "setup" else None
    t_run = time.monotonic()
    summary = drv.run()
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2))
    t_done = time.monotonic()
    rep = {
        "import_ms": IMPORT_MS,
        "kernel_load_s": kernel_load_s,
        "t_run": t_run,
        "t_done": t_done,
        "first_step_end": clock.spans[0][1],
        "step_ms": clock.step_ms(0),
        "steps": summary["steps"],
        "plans": summary["plans"],
        "mults_per_step": mults_per_step(app),
        "kernels_nnz": registry.registry_stats()["total_nnz"],
        "peak_rss_mb": common.vm_hwm_mb([os.getpid()] + child_pids(app)),
    }
    if mode == "setup":
        drv.close()
        return rep
    main_layers = timers.snapshot() if timers is not None else None
    failures = []
    final = copy_state(app)

    # reading the finished result back: the final checkpoint
    ckpt = drv.checkpoint_path
    loads = []
    for _ in range(CHECKPOINT_LOADS):
        t0 = time.perf_counter()
        state, _meta = load_checkpoint(ckpt)
        loads.append((time.perf_counter() - t0) * 1e3)
    rep["checkpoint_load_ms"] = loads
    common.require(
        all(np.array_equal(state[k], final[k]) for k in final),
        "final checkpoint reloads bitwise equal to the model state",
        failures,
    )

    # particle number of every species is conserved to roundoff
    n0, n1 = numbers(app, initial), numbers(app, final)
    worst = max(abs(n1[k] - n0[k]) / abs(n0[k]) for k in n0)
    rep["number_drift"] = worst
    common.require(
        worst <= NUMBER_RTOL,
        f"particle number conserved to {NUMBER_RTOL:g} (worst {worst:.3g})",
        failures,
    )

    wl = cfg["workload"]
    if wl == "table1_2x3v":
        check_table1(spec, app, final, rep, failures, timers)
    elif wl == "weibel_2x2v_sharded":
        check_weibel(spec, drv, final, summary, rep, failures, clock, timers)
    elif wl == "shock_1x1v":
        check_shock(outdir, summary, rep, failures)
    drv.close()

    if mode == "prime":
        if cfg.get("kernel_bundles"):
            store_kernel_bundles(cfg["kernel_bundles"])
        rep["cold_compile_s"] = rep["plans"]["compile_seconds"] + rep.get(
            "ref_plans", {}
        ).get("compile_seconds", 0.0)
    if timers is not None:
        rep["layers_main"] = main_layers
    rep["failures"] = failures
    return rep


def check_table1(spec, app, final, rep, failures, timers):
    """The alias-free property: each species' modal Vlasov RHS of the final
    state equals that of the separately implemented exact-quadrature
    solver (``scheme="quadrature"``) to roundoff."""
    em = app.field.em_for_species(app, final)
    worst = 0.0
    for blk in app.blocks:
        f = final[f"f/{blk.name}"]
        nodal = VlasovQuadratureSolver(
            blk.phase_grid, spec.poly_order, spec.family,
            blk.solver.charge, blk.solver.mass,
        )
        diff = np.max(np.abs(blk.solver.rhs(f, em) - nodal.rhs(f, em)))
        worst = max(worst, float(diff / np.max(np.abs(f))))
    rep["alias_free_diff"] = worst
    common.require(
        worst <= ALIAS_FREE_RTOL,
        f"modal Vlasov RHS equals the quadrature RHS to {ALIAS_FREE_RTOL:g} "
        f"of max|f| (worst {worst:.3g})",
        failures,
    )
    if timers is not None:
        # Table I comparator: one step of the nodal scheme on the same spec
        nodal_app = build_system(replace(spec, scheme="quadrature"))
        nodal_app.set_state({k: v.copy() for k, v in final.items()})
        dt = app.suggested_dt()
        t0 = time.perf_counter()
        nodal_app.step(dt)
        rep["nodal_step_ms"] = (time.perf_counter() - t0) * 1e3


def check_weibel(spec, drv, final, summary, rep, failures, clock, timers):
    """Sharded == serial bit for bit; halo traffic == the Fig. 3 model."""
    app = drv.app
    halo = app.halo_stats
    plan = ShardPlan.create(spec.conf_grid.cells, get_backend(spec.backend).shards)
    model = 0
    for blk in app.blocks:
        model += plan.model_halo_doubles(blk.solver.num_basis, blk.phase_grid.vel.cells)
    model *= STAGES * summary["steps"]
    rep["halo"] = {
        "bytes": halo["bytes"],
        "messages": halo["messages"],
        "f_doubles": halo["f"]["doubles"],
        "model_f_doubles": model,
    }
    common.require(
        halo["f"]["doubles"] == model,
        f"halo doubles {halo['f']['doubles']} equal the Fig. 3 model {model}",
        failures,
    )
    if "obs" in summary:
        m = summary["obs"]["metrics"]
        rep["obs"] = {k: m.get(k, 0.0) for k in ("halo_wait_ms", "barrier_wait_ms")}

    # serial reference of the same spec, same step count
    if timers is not None:
        before = timers.snapshot()
    mark = clock.mark()
    ref = Driver(replace(spec, backend="numpy", observability=ObservabilitySpec()))
    ref.run()
    rep["serial_step_ms"] = clock.step_ms(mark)
    rep["ref_plans"] = ref.summary()["plans"]
    ref_state = ref.app.state()
    same = all(np.array_equal(final[k], ref_state[k]) for k in final)
    common.require(same, "sharded final state bit-identical to serial", failures)
    ref.close()
    if timers is not None:
        rep["layers_ref"] = LayerTimers.delta(timers.snapshot(), before)
        rep["ref_steps"] = ref.app.step_count


def check_shock(outdir, summary, rep, failures):
    """One parseable diagnostics record per step (plus the t=0 record)."""
    steps = []
    with open(outdir / "diagnostics.jsonl") as fh:
        for line in fh:
            steps.append(json.loads(line)["step"])
    common.require(
        steps == list(range(summary["steps"] + 1)),
        f"diagnostics.jsonl holds one record per step ({len(steps)} records "
        f"for {summary['steps']} steps)",
        failures,
    )


def main(cfg_path: str, out_path: str) -> int:
    cfg = json.loads(Path(cfg_path).read_text())
    report = run(cfg)
    Path(out_path).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
