"""The ``serve_scan`` workload: a closed loop of client threads against a
fresh ``repro.serve`` daemon.

Usage: ``python perfbench/serve_load.py <config.json> <report.json>``
(started by ``run.py``).

The daemon runs in its own process (``serve_daemon.py``) over a new job
store.  ``CLIENTS`` threads share one seeded scan of distinct
``landau_damping`` specs: each thread takes the next spec, submits it and
waits for the result as ``repro submit --wait`` does (the client's default
poll), pauses for a seeded random time below ``PAUSE_MAX``, resubmits
the same spec and reads the cached result, and moves on.  Half of all submissions are therefore new computes and half
are cache hits.  After the scan the run is checked against a direct,
in-process run of every spec.
"""

import time

_t_import = time.perf_counter()
import repro  # noqa: E402,F401

IMPORT_MS = (time.perf_counter() - _t_import) * 1e3

import json  # noqa: E402
import random  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

from repro.kernels.registry import clear_registry, registry_stats  # noqa: E402
from repro.runtime.driver import Driver  # noqa: E402
from repro.serve import ServeClient, ServeError  # noqa: E402
from repro.serve.store import FileJobStore  # noqa: E402

import common  # noqa: E402
import specs  # noqa: E402
from layers import LayerTimers, StepClock, mults_per_step  # noqa: E402

CLIENTS = 2
WORKERS = 2
HEALTH_POLL = 0.005
#: upper end of the seeded pause between a result and its resubmission:
#: it spreads the cached reads over every phase of the daemon's, workers'
#: and clients' 0.2 s poll cadences, which otherwise lock for a whole run
#: and decide whether cached reads meet a busy daemon (moving their median
#: by up to 2x from run to run)
PAUSE_MAX = 0.2
#: summary fields that are physics (bit-identical across runs of a spec)
PHYSICS_FIELDS = (
    "time", "steps", "field_energy", "total_energy", "particle_number",
    "energy_drift", "status",
)


class Daemon:
    """A serve daemon process over one store directory."""

    def __init__(self, root: Path):
        self.root = root
        self.report_path = root.parent / f"{root.name}.daemon.json"
        cfg_path = root.parent / f"{root.name}.daemon.config.json"
        cfg_path.write_text(json.dumps({"root": str(root), "workers": WORKERS}))
        self.log = open(root.parent / f"{root.name}.daemon.log", "w")
        self.launch = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(common.BENCH_DIR / "serve_daemon.py"),
             str(cfg_path), str(self.report_path)],
            stdin=subprocess.PIPE, stdout=self.log, stderr=subprocess.STDOUT,
        )

    def wait_healthy(self, timeout: float = 60.0) -> ServeClient:
        """Poll until the daemon answers healthy with every worker alive;
        returns a client.  ``self.ready`` is the monotonic time of that."""
        deadline = self.launch + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise common.BenchError("serve daemon exited during start-up")
            try:
                client = ServeClient.from_dir(self.root)
                health = client.health()
                if health["status"] == "ok" and health["workers_alive"] == WORKERS:
                    self.ready = time.monotonic()
                    return client
            except (ServeError, KeyError, ValueError):
                pass
            time.sleep(HEALTH_POLL)
        raise common.BenchError("serve daemon never became healthy")

    def drain(self) -> dict:
        self.proc.stdin.write(b"drain\n")
        self.proc.stdin.close()
        self.proc.wait(timeout=90)
        self.log.close()
        report = common.read_json(self.report_path)
        if self.proc.returncode != 0 or report is None:
            raise common.BenchError("serve daemon failed to drain")
        return report

    def kill(self) -> None:
        """Last resort on an error path: stop workers through the store's
        drain sentinel, then the daemon."""
        if self.proc.poll() is None:
            FileJobStore(self.root).request_stop()
            self.proc.terminate()
            self.proc.wait(timeout=30)
        self.log.close()


def client_loop(client, scan, cursor, lock, records, failures, pause):
    """One closed-loop client: submit new, wait, pause, resubmit, read
    cached."""
    while True:
        with lock:
            i = cursor[0]
            cursor[0] += 1
        if i >= len(scan):
            return
        spec = scan[i]
        rec = {"index": i}
        try:
            t0 = time.monotonic()
            resp = client.submit(spec)
            rec["submit_ms"] = (time.monotonic() - t0) * 1e3
            rec["job"], rec["compute"] = resp["job"], resp["compute"]
            result = client.result(resp["job"], wait=True)
            t1 = time.monotonic()
            rec["result_wall"] = time.time()
            rec["ttfr_ms"] = (t1 - t0) * 1e3
            rec["t_submit"], rec["t_result"] = t0, t1
            rec["result"] = result
            time.sleep(pause.uniform(0.0, PAUSE_MAX))
            t2 = time.monotonic()
            again = client.submit(spec)
            cached = client.result(again["job"], wait=False)
            rec["cached_hit_ms"] = (time.monotonic() - t2) * 1e3
            rec["again_job"], rec["again_compute"] = again["job"], again["compute"]
            rec["cached_result"] = cached
        except (ServeError, KeyError) as exc:
            with lock:
                failures.append(f"spec {i}: {type(exc).__name__}: {exc}")
            rec["error"] = str(exc)
        with lock:
            records.append(rec)


def start_and_drain(root: Path) -> float:
    """One throwaway daemon start (a set-up sample): launch to healthy."""
    daemon = Daemon(root)
    try:
        daemon.wait_healthy()
        daemon.drain()
    except BaseException:
        daemon.kill()
        raise
    return daemon.ready - daemon.launch


def main(cfg_path: str, out_path: str) -> int:
    cfg = json.loads(Path(cfg_path).read_text())
    work = Path(cfg["workdir"])
    work.mkdir(parents=True, exist_ok=True)
    scan = specs.landau_scan(cfg["seed"], cfg["count"], cfg["steps"])
    setups = [
        start_and_drain(work / f"warmup-store-{i}")
        for i in range(cfg["setup_repeats"] - 1)
    ]

    daemon = Daemon(work / "store")
    try:
        client = daemon.wait_healthy()
        setups.append(daemon.ready - daemon.launch)
        records, failures, lock, cursor = [], [], threading.Lock(), [0]
        threads = [
            threading.Thread(
                target=client_loop,
                args=(
                    client, scan, cursor, lock, records, failures,
                    random.Random(f"{cfg['seed']}:{n}"),
                ),
            )
            for n in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        jobs = {r["job"]: client.job(r["job"]) for r in records if "job" in r}
        streamed = {
            job: b"".join(client.stream_diagnostics(job)) for job in jobs
        }
        daemon_report = daemon.drain()
    except BaseException:
        daemon.kill()
        raise

    store = FileJobStore(daemon.root)
    rep = {
        "setup_s": setups,
        "records": [
            {k: v for k, v in r.items() if k not in ("result", "cached_result")}
            for r in records
        ],
        "served_plans": [r["result"]["plans"] for r in records if "result" in r],
        "served_step_ms": [
            r["result"]["wall_per_step"] * 1e3 for r in records if "result" in r
        ],
        "jobs": {
            job: {k: rec.get(k) for k in ("submitted", "started", "finished")}
            for job, rec in jobs.items()
        },
        "claims": len(store.claims_log.read_text().splitlines()),
        "daemon": daemon_report,
    }
    failures = list(failures)
    check(scan, records, store, streamed, daemon_report, failures, rep, cfg)
    rep["failures"] = failures
    Path(out_path).write_text(json.dumps(rep))
    return 0


def check(scan, records, store, streamed, daemon_report, failures, rep, cfg):
    """Dedup, streaming and bit-identity checks (after all timing)."""
    common.require(len(records) == len(scan), "every scan spec was served", failures)
    for r in records:
        if "error" in r:
            continue
        i = r["index"]
        common.require(
            r["compute"] == "scheduled", f"spec {i}: first submission is a new job",
            failures,
        )
        common.require(
            r["again_job"] == r["job"] and r["again_compute"] == "cached"
            and r["cached_result"] == r["result"],
            f"spec {i}: resubmission returns the same job id and result, "
            "answered cached",
            failures,
        )
        disk = store.diagnostics_path(r["job"]).read_bytes()
        common.require(
            streamed.get(r["job"]) == disk,
            f"spec {i}: streamed diagnostics byte-identical to the file",
            failures,
        )
    common.require(daemon_report["drained"], "daemon drained cleanly", failures)

    # every served summary equals a direct run of the same spec here
    clock = StepClock()
    clock.install()
    by_index = {r["index"]: r for r in records if "result" in r}
    for i, spec in enumerate(scan):
        direct, _ = direct_run(spec)
        served = by_index.get(i, {}).get("result")
        same = served is not None and all(
            json.dumps(served.get(k), sort_keys=True)
            == json.dumps(direct.get(k), sort_keys=True)
            for k in PHYSICS_FIELDS
        )
        common.require(same, f"spec {i}: served summary equals a direct run", failures)
    rep["direct_step_ms"] = clock.step_ms(0)
    if cfg["trace"]:
        # the same runs again under the layer timers, kernels generated anew
        clear_registry()
        timers = LayerTimers()
        timers.install()
        mark = clock.mark()
        plans, first = [], []
        for spec in scan:
            first.append(clock.mark())
            summary, app = direct_run(spec)
            plans.append(summary["plans"])
        rep["traced_step_ms"] = clock.step_ms(mark)
        rep["first_step_ms"] = [clock.step_ms(i, i + 1)[0] for i in first]
        rep["layers_direct"] = timers.snapshot()
        rep["direct_plans"] = plans
        rep["mults_per_step"] = mults_per_step(app)
        rep["kernels_nnz"] = registry_stats()["total_nnz"]
        rep["import_ms"] = IMPORT_MS


def direct_run(spec):
    drv = Driver(spec)
    try:
        return drv.run(), drv.app
    finally:
        drv.close()

if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
