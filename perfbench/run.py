"""The benchmark: four workloads through the program's public entry points.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: ``table1_2x3v``, ``weibel_2x2v_sharded``, ``shock_1x1v``,
``serve_scan`` (see ``perfbench/README.md``).  ``--seconds`` sizes the
fixed amount of work a run does (steps, scan length); the work never
depends on measured speed.  With ``--trace 0`` the last line of standard
output is a JSON object carrying every end-to-end metric; with
``--trace 1`` it carries every per-layer metric, from layer timers wrapped
around the program's public layer functions, plus the tracing overhead.

The first run in a checkout primes the benchmark-owned state under
``.perfbench/`` (plan cache, Table I kernel bundle) with untimed runs of
every workload; later runs reuse it.  A directory without the program's
sources makes the benchmark exit with code 2.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import shutil
import statistics
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory clean

import common  # noqa: E402
from common import BenchError, median  # noqa: E402

WORKLOADS = ("table1_2x3v", "weibel_2x2v_sharded", "shock_1x1v", "serve_scan")

#: work per run second of ``--seconds`` for each workload (fixed; the
#: values make one run take about ``--seconds`` of stepping at the parent
#: revision of this benchmark)
TABLE1_STEPS_PER_S = 1.6
WEIBEL_STEPS_PER_S = 5.0
SHOCK_STEPS_PER_S = 140.0
SHOCK_CHECKPOINT_INTERVAL = 200
SERVE_JOBS_PER_S = 6.4
SERVE_JOB_STEPS = 80
#: fresh-process set-ups per run (the reported set-up time is their median)
SETUP_REPEATS = {
    "table1_2x3v": 1,
    "weibel_2x2v_sharded": 1,
    "shock_1x1v": 3,
    "serve_scan": 3,
}
TABLE1_KERNELS = [[2, 3, 2, "serendipity"]]
PINNED = {"table1_2x3v"}

# --------------------------------------------------------------------- #
# priming: untimed runs that fill the benchmark-owned plan cache
# --------------------------------------------------------------------- #
def source_digest() -> str:
    """Digest of the program's sources: primed state (compiled plans, the
    generated kernel bundle) is only reused by the code that made it."""
    h = hashlib.sha256()
    for path in sorted((common.SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(common.SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def ensure_primed() -> dict:
    common.STATE.mkdir(parents=True, exist_ok=True)
    with open(common.STATE / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        digest = source_digest()
        primed = common.read_json(common.PRIMED)
        if primed is not None and primed.get("digest") == digest:
            return primed
        for sub in (common.CACHE, common.KERNELS, common.RUNS):
            shutil.rmtree(sub, ignore_errors=True)
        primed = {"digest": digest, "workloads": {}}
        work = common.RUNS / "prime"
        for wl in ("table1_2x3v", "weibel_2x2v_sharded", "shock_1x1v"):
            cfg = sim_config(wl, 0, 2, work / wl, "prime", trace=True)
            rep = common.run_child(
                "sim_child.py", cfg, work / wl, pinned=wl in PINNED, timeout=850.0
            )
            if rep["failures"]:
                raise BenchError(f"priming {wl} failed its checks: {rep['failures']}")
            primed["workloads"][wl] = {
                "cold_compile_s": rep["cold_compile_s"],
                "kernels_generate_s": rep["layers_main"]["ms"].get(
                    "kernels.generate", 0.0
                ) / 1e3,
            }
        rep = common.run_child(
            "serve_load.py",
            serve_config(0, 2, work / "serve_scan", trace=False, setup_repeats=1),
            work / "serve_scan",
            pinned=False,
        )
        if rep["failures"]:
            raise BenchError(f"priming serve_scan failed its checks: {rep['failures']}")
        primed["workloads"]["serve_scan"] = {
            "cold_compile_s": sum(p["compile_seconds"] for p in rep["served_plans"])
        }
        common.PRIMED.write_text(json.dumps(primed, indent=2))
        return primed


# --------------------------------------------------------------------- #
def sim_config(wl, seed, steps, outdir, mode, trace=False, observe=False) -> dict:
    return {
        "workload": wl,
        "seed": seed,
        "steps": steps,
        "checkpoint_interval": SHOCK_CHECKPOINT_INTERVAL,
        "outdir": str(outdir / "out"),
        "mode": mode,
        "trace": trace,
        "observe": observe,
        "kernel_bundles": TABLE1_KERNELS if wl == "table1_2x3v" else [],
    }


def serve_config(seed, count, workdir, trace, setup_repeats) -> dict:
    return {
        "workdir": str(workdir / "w"),
        "seed": seed,
        "count": count,
        "steps": SERVE_JOB_STEPS,
        "trace": trace,
        "setup_repeats": setup_repeats,
    }


def sim_steps(wl: str, seconds: int) -> int:
    rate = {
        "table1_2x3v": TABLE1_STEPS_PER_S,
        "weibel_2x2v_sharded": WEIBEL_STEPS_PER_S,
        "shock_1x1v": SHOCK_STEPS_PER_S,
    }[wl]
    return max(4, round(rate * seconds))


def fresh_workdir(name: str) -> Path:
    path = common.RUNS / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_sim(wl, seed, seconds, trace, primed) -> dict:
    steps = sim_steps(wl, seconds)
    pinned = wl in PINNED
    work = fresh_workdir(wl)
    setups = []
    for i in range(SETUP_REPEATS[wl] - 1):
        cfg = sim_config(wl, seed, 1, work / f"setup{i}", "setup")
        rep = common.run_child("sim_child.py", cfg, work / f"setup{i}", pinned)
        setups.append(rep["first_step_end"] - rep["launch"])
    cfg = sim_config(wl, seed, steps, work / "timed", "timed")
    rep = common.run_child("sim_child.py", cfg, work / "timed", pinned)
    setups.append(rep["first_step_end"] - rep["launch"])
    failures = list(rep["failures"])
    failed = steps - rep["steps"]
    step_ms = median(rep["step_ms"][1:])
    ttr = rep["t_done"] - rep["launch"]
    out = {
        "attempted": steps,
        "failed": failed,
        "failures": failures,
    }
    if not trace:
        out["metrics"] = {
            "setup_s": median(setups),
            "step_ms": step_ms,
            "time_to_result_s": ttr,
            "peak_rss_mb": rep["peak_rss_mb"],
            "ttfr_ms": (rep["first_step_end"] - rep["launch"]) * 1e3,
            "cached_hit_ms": median(rep["checkpoint_load_ms"]),
            "jobs_per_s": 1.0 / ttr,
        }
        return out
    cfg = sim_config(
        wl, seed, steps, work / "traced", "timed", trace=True,
        observe=wl == "weibel_2x2v_sharded",
    )
    traced = common.run_child("sim_child.py", cfg, work / "traced", pinned)
    add_dgemm(traced)
    out["failures"] += traced["failures"]
    out["metrics"] = sim_layers(wl, rep, traced, step_ms, primed)
    return out


def declared_metrics() -> tuple:
    """Names and units of the end-to-end and per-layer metrics, as
    ``BENCHMARK.json`` declares them."""
    doc = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


def layer_values() -> dict:
    """Every per-layer metric at 0: a layer a workload never calls keeps
    0 (no time, no work) in its traced output."""
    return {name: 0.0 for name in declared_metrics()[1]}


def sim_layers(wl, rep, traced, step_ms, primed) -> dict:
    """Per-layer metrics of a simulation workload from its traced child
    (``rep`` is the untraced child of the same run)."""
    v = layer_values()
    main = traced["layers_main"]
    steps = traced["steps"]
    pw = primed["workloads"][wl]
    ms, calls = main["ms"], main["calls"]
    v["runtime.import_ms"] = traced["import_ms"]
    v["kernels.generate_s"] = ms.get("kernels.generate", 0.0) / 1e3
    if wl == "table1_2x3v":
        # generated once at priming; timed runs load the stored bundle
        v["kernels.generate_s"] = pw["kernels_generate_s"]
    v["kernels.load_s"] = traced["kernel_load_s"]
    v["kernels.nnz"] = traced["kernels_nnz"]
    v["collisions.build_s"] = ms.get("collisions.build", 0.0) / 1e3
    v["projection.ic_s"] = ms.get("projection.ic", 0.0) / 1e3
    v["engine.first_step_s"] = traced["step_ms"][0] / 1e3
    plans = traced["plans"]
    v["engine.compile_s"] = plans["compile_seconds"]
    v["engine.plans_compiled"] = plans["compiled"]
    v["engine.plans_hydrated"] = plans["hydrated"]
    v["engine.kernels_built"] = plans["kernels_built"]
    v["engine.kernels_loaded"] = plans["kernels_loaded"]
    v["engine.cold_compile_s"] = pw["cold_compile_s"]

    # per-step compute layers: the serial reference run for the sharded
    # workload (the shard workers' blocks are not wrapped), the run itself
    # otherwise
    if wl == "weibel_2x2v_sharded":
        comp, csteps = traced["layers_ref"], traced["ref_steps"]
        step_total = sum(traced["serial_step_ms"])
    else:
        comp, csteps = main, steps
        step_total = sum(traced["step_ms"])
    cms, ccalls = comp["ms"], comp["calls"]
    v["systems.rhs_ms"] = cms.get("systems.rhs", 0.0) / csteps
    v["timestepping.self_ms"] = (step_total - cms.get("systems.rhs", 0.0)) / csteps
    v["vlasov.rhs_ms"] = cms.get("vlasov.rhs", 0.0) / csteps
    v["engine.apply_ms"] = cms.get("engine.apply", 0.0) / csteps
    v["engine.apply_calls"] = ccalls.get("engine.apply", 0) / csteps
    v["engine.mults_per_step"] = traced["mults_per_step"]
    vlasov_apply_s = cms.get("engine.apply_vlasov", 0.0) / csteps / 1e3
    if vlasov_apply_s > 0:
        v["engine.mults_per_s"] = traced["mults_per_step"] / vlasov_apply_s
        v["engine.peak_frac"] = v["engine.mults_per_s"] / traced["dgemm_mults_per_s"]
    v["moments.ms"] = cms.get("moments", 0.0) / csteps
    v["fields.maxwell_ms"] = cms.get("fields.maxwell", 0.0) / csteps
    v["fields.poisson_ms"] = cms.get("fields.poisson", 0.0) / csteps
    v["collisions.rhs_ms"] = cms.get("collisions.rhs", 0.0) / csteps
    if calls.get("diagnostics.record"):
        v["diagnostics.record_ms"] = ms["diagnostics.record"] / calls["diagnostics.record"]
    if calls.get("io.checkpoint"):
        v["io.checkpoint_ms"] = ms["io.checkpoint"] / calls["io.checkpoint"]
        v["io.checkpoint_mb"] = main["checkpoint_bytes"] / calls["io.checkpoint"] / 1e6
    if "nodal_step_ms" in traced:
        v["vlasov.nodal_step_ms"] = traced["nodal_step_ms"]
        v["vlasov.nodal_over_modal"] = traced["nodal_step_ms"] / step_ms
    if "serial_step_ms" in rep:
        v["dist.serial_step_ms"] = median(rep["serial_step_ms"][1:])
        v["dist.speedup"] = v["dist.serial_step_ms"] / step_ms
        v["dist.halo_bytes"] = rep["halo"]["bytes"] / steps
        v["dist.halo_messages"] = rep["halo"]["messages"] / steps
        obs = traced.get("obs", {})
        v["dist.halo_wait_ms"] = obs.get("halo_wait_ms", 0.0) / steps
        v["dist.barrier_wait_ms"] = obs.get("barrier_wait_ms", 0.0) / steps
    v["trace.overhead_ms"] = median(traced["step_ms"][1:]) - step_ms
    return v


# --------------------------------------------------------------------- #
def run_serve(seed, seconds, trace, primed) -> dict:
    count = max(4, round(SERVE_JOBS_PER_S * seconds))
    work = fresh_workdir("serve_scan")
    rep = common.run_child(
        "serve_load.py",
        serve_config(seed, count, work, trace, SETUP_REPEATS["serve_scan"]),
        work,
        pinned=False,
    )
    recs = [r for r in rep["records"] if "result_wall" in r]
    attempted = 2 * count  # every spec is submitted twice
    answered = sum(
        ("result_wall" in r) + ("again_compute" in r) for r in rep["records"]
    )
    failed = attempted - answered
    out = {"attempted": attempted, "failed": failed, "failures": rep["failures"]}
    if not recs:
        raise BenchError("no job of the scan was served")
    first = min(r["t_submit"] for r in recs)
    last = max(r["t_result"] for r in recs)
    scan_s = last - first
    # per-step wall of the served jobs, as the workers' run summaries give it
    step_ms = median(rep["served_step_ms"])
    if not trace:
        out["metrics"] = {
            "setup_s": median(rep["setup_s"]),
            "step_ms": step_ms,
            "time_to_result_s": scan_s,
            "peak_rss_mb": rep["daemon"]["peak_rss_mb"],
            "ttfr_ms": median([r["ttfr_ms"] for r in recs]),
            # lower quartile: cached reads share two busy cores with the
            # computing workers, and the scheduling delays that puts on
            # their upper half moved the median by up to 35% between runs
            "cached_hit_ms": statistics.quantiles(
                [r["cached_hit_ms"] for r in recs], n=4
            )[0],
            "jobs_per_s": len(recs) / scan_s,
        }
        return out
    v = layer_values()
    jobs = rep["jobs"]
    v["serve.submit_ms"] = median([r["submit_ms"] for r in recs])
    v["serve.queue_ms"] = median(
        [(jobs[r["job"]]["started"] - jobs[r["job"]]["submitted"]) * 1e3 for r in recs]
    )
    v["serve.run_ms"] = median(
        [(jobs[r["job"]]["finished"] - jobs[r["job"]]["started"]) * 1e3 for r in recs]
    )
    v["serve.result_lag_ms"] = median(
        [(r["result_wall"] - jobs[r["job"]]["finished"]) * 1e3 for r in recs]
    )
    v["serve.claims"] = rep["claims"]
    v["serve.dedup_hits"] = sum(1 for r in recs if r.get("again_compute") == "cached")
    direct = rep["layers_direct"]
    dsteps = len(rep["traced_step_ms"])
    dms, dcalls = direct["ms"], direct["calls"]
    v["systems.rhs_ms"] = dms.get("systems.rhs", 0.0) / dsteps
    v["timestepping.self_ms"] = (
        sum(rep["traced_step_ms"]) - dms.get("systems.rhs", 0.0)
    ) / dsteps
    v["vlasov.rhs_ms"] = dms.get("vlasov.rhs", 0.0) / dsteps
    v["engine.apply_ms"] = dms.get("engine.apply", 0.0) / dsteps
    v["engine.apply_calls"] = dcalls.get("engine.apply", 0) / dsteps
    v["moments.ms"] = dms.get("moments", 0.0) / dsteps
    v["fields.maxwell_ms"] = dms.get("fields.maxwell", 0.0) / dsteps
    v["runtime.import_ms"] = rep["import_ms"]
    v["kernels.generate_s"] = dms.get("kernels.generate", 0.0) / 1e3
    v["kernels.nnz"] = rep["kernels_nnz"]
    v["projection.ic_s"] = dms.get("projection.ic", 0.0) / 1e3 / count
    # per job of the in-process reference runs
    v["engine.first_step_s"] = median(rep["first_step_ms"]) / 1e3
    per_job = {
        key: median([p[key] for p in rep["direct_plans"]])
        for key in ("compile_seconds", "compiled", "hydrated", "kernels_built",
                    "kernels_loaded")
    }
    v["engine.compile_s"] = per_job["compile_seconds"]
    v["engine.plans_compiled"] = per_job["compiled"]
    v["engine.plans_hydrated"] = per_job["hydrated"]
    v["engine.kernels_built"] = per_job["kernels_built"]
    v["engine.kernels_loaded"] = per_job["kernels_loaded"]
    v["engine.cold_compile_s"] = primed["workloads"]["serve_scan"]["cold_compile_s"]
    v["engine.mults_per_step"] = rep["mults_per_step"]
    vlasov_apply_s = dms.get("engine.apply_vlasov", 0.0) / dsteps / 1e3
    if vlasov_apply_s > 0:
        add_dgemm(rep)
        v["engine.mults_per_s"] = rep["mults_per_step"] / vlasov_apply_s
        v["engine.peak_frac"] = v["engine.mults_per_s"] / rep["dgemm_mults_per_s"]
    if dcalls.get("diagnostics.record"):
        v["diagnostics.record_ms"] = dms["diagnostics.record"] / dcalls["diagnostics.record"]
    v["trace.overhead_ms"] = median(rep["traced_step_ms"]) - median(rep["direct_step_ms"])
    out["metrics"] = v
    return out


def add_dgemm(traced: dict) -> None:
    probe = common.run_child("dgemm_probe.py", {}, common.RUNS / "dgemm", pinned=True)
    traced["dgemm_mults_per_s"] = probe["mults_per_s"]


# --------------------------------------------------------------------- #
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not common.checkout_ok():
        print(
            f"perfbench: no program sources at {common.SRC / 'repro'}; "
            "run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    try:
        primed = ensure_primed()
        if args.workload == "serve_scan":
            out = run_serve(args.seed, args.seconds, bool(args.trace), primed)
        else:
            out = run_sim(args.workload, args.seed, args.seconds, bool(args.trace), primed)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for what in out["failures"]:
        print(f"perfbench: check failed: {what}", file=sys.stderr)
    units = declared_metrics()[1 if args.trace else 0]
    if set(out["metrics"]) != set(units):
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    result = {
        "correct": not out["failures"],
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {
            name: {"value": float(out["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
