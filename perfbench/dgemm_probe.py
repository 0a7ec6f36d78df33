"""One-thread dgemm rate, the peak the engine's multiplication rate is
compared against (``engine.peak_frac``).

Usage: ``python perfbench/dgemm_probe.py <config.json> <report.json>``;
``run.py`` starts it with every BLAS pool pinned to one thread.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

N = 384
REPEATS = 7


def main(cfg_path: str, out_path: str) -> int:
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((N, N)), rng.standard_normal((N, N))
    c = a @ b  # warm-up
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        c = a @ b
        times.append(time.perf_counter() - t0)
    times.sort()
    rate = N**3 / times[len(times) // 2]
    Path(out_path).write_text(
        json.dumps({"mults_per_s": rate, "checksum": float(c[0, 0])})
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
