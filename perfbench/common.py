"""Shared plumbing of the benchmark: checkout layout, child environments,
fresh-process launches, memory high-water marks and small statistics.

Nothing here imports ``repro``: the orchestrating process stays light, and
every timed run of the program happens in a fresh child process.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: benchmark-owned state of one checkout: plan cache, kernel bundles,
#: priming record and per-run scratch directories (ignored by git)
STATE = ROOT / ".perfbench"
CACHE = STATE / "plan-cache"
KERNELS = STATE / "kernels"
RUNS = STATE / "runs"
PRIMED = STATE / "primed.json"

#: every thread-pool knob NumPy's BLAS or OpenMP may read
PIN_ONE_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

CHILD_TIMEOUT = 170.0


class BenchError(RuntimeError):
    """The benchmark cannot run here, or a child process failed."""


def checkout_ok() -> bool:
    """True when the program's sources sit next to the benchmark."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env(pinned: bool) -> Dict[str, str]:
    """Environment of a benchmark child: the program from this checkout's
    ``src``, the benchmark-owned plan cache, program defaults otherwise.

    Inherited ``REPRO_*`` settings are dropped so no outside configuration
    (kernel tier, plan mode, observability, cache root) leaks into a run.
    ``pinned`` limits every BLAS/OpenMP pool to one thread; unpinned runs
    keep whatever thread environment the caller has.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(CACHE)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    if pinned:
        env.update(PIN_ONE_THREAD)
    return env


def run_child(
    script: str, config: dict, workdir: Path, pinned: bool,
    timeout: float = CHILD_TIMEOUT,
) -> dict:
    """Run ``perfbench/<script>`` in a fresh interpreter on ``config``.

    Returns the child's JSON report with ``launch`` set to the
    ``time.monotonic()`` reading taken just before the process was
    started (the clock is system-wide, so the child's own stamps compare
    with it directly).
    """
    workdir.mkdir(parents=True, exist_ok=True)
    cfg_path = workdir / f"{script}.config.json"
    out_path = workdir / f"{script}.report.json"
    cfg_path.write_text(json.dumps(config))
    if out_path.exists():
        out_path.unlink()
    log_path = workdir / f"{script}.log"
    with open(log_path, "w") as log:
        launch = time.monotonic()
        # a session of its own, so a hung child is stopped together with
        # the shard or serve workers it forked
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / script), str(cfg_path), str(out_path)],
            cwd=str(ROOT),
            env=child_env(pinned),
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"{script} timed out after {timeout:g}s (log: {log_path})")
    if code != 0 or not out_path.exists():
        tail = log_path.read_text()[-2000:]
        raise BenchError(f"{script} exited with code {code}:\n{tail}")
    report = json.loads(out_path.read_text())
    report["launch"] = launch
    return report


def vm_hwm_mb(pids: Iterable[int]) -> float:
    """Sum of the processes' resident-memory high-water marks (VmHWM) in
    MB; a process that has already gone contributes nothing."""
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("no samples to take a median of")
    return float(statistics.median(values))


def require(ok: bool, what: str, failures: List[str]) -> None:
    """Record a failed correctness check (the run reports correct=false)."""
    if not ok:
        failures.append(what)


def read_json(path: Path) -> Optional[dict]:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
