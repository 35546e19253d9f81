"""A fixed piece of work that measures how fast the machine is right now.

    python3 bench/calibrate.py

``run.py`` runs this as its own process just before every stage process and
times it the same way. On a machine shared with other work, the speed of
every process drifts together over seconds to minutes; the run's mean
calibration time measures that drift, and the end-to-end times are scaled
by it (see ``run.py``). The work is the kind xgkn's stages do: interpreter
start-up and the NumPy/SciPy import every stage pays, a pure-Python loop over
dicts and a heap (as in the GED search and the subgraph enumeration), and
small dense and sparse array operations (as in the kernel). It imports
nothing from xgkn, so no change to the package can change it.
"""

import heapq
import random

import numpy as np
import scipy.sparse as sp


def main() -> None:
    rng = random.Random(0)
    heap, counts = [], {}
    for i in range(40_000):
        key = rng.randrange(5_000)
        counts[key] = counts.get(key, 0) + i
        heapq.heappush(heap, (counts[key] % 977, key))
        if len(heap) > 500:
            heapq.heappop(heap)
    arrays = np.random.default_rng(0)
    total = 0.0
    for _ in range(200):
        dense = arrays.random((40, 16))
        total += float(np.tanh(sp.csr_matrix(dense > 0.7).T @ dense).sum())
    if not np.isfinite(total):
        raise SystemExit("calibration produced a non-finite sum")


if __name__ == "__main__":
    main()
