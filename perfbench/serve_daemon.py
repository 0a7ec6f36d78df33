"""A ``repro.serve`` daemon in its own process, for the ``serve_scan``
workload.

Usage: ``python perfbench/serve_daemon.py <config.json> <report.json>``
(started by ``serve_load.py``).  Starts :class:`repro.serve.ServeDaemon`
over the configured store with program defaults (2 workers, the default
poll), serves until a line arrives on standard input, then records the
memory high-water marks of itself and its workers and drains.
"""

import json
import os
import sys
from pathlib import Path

from repro.serve import ServeDaemon

import common


def main(cfg_path: str, out_path: str) -> int:
    cfg = json.loads(Path(cfg_path).read_text())
    daemon = ServeDaemon(cfg["root"], workers=cfg["workers"]).start()
    try:
        sys.stdin.readline()
        rss = common.vm_hwm_mb([os.getpid()] + daemon.pool.pids())
        clean = daemon.drain(timeout=60.0)
    finally:
        if daemon.pool.alive():
            daemon.pool.terminate()
    Path(out_path).write_text(json.dumps({"peak_rss_mb": rss, "drained": clean}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
