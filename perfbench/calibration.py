"""Machine-speed calibration: scale a run's times to a reference speed.

The shared VMs this benchmark runs on change speed by up to 2x over
minutes (CPU time tracks wall time, so the process is not descheduled; it
executes more slowly).  Medians over a run average out second-scale
fluctuations but not that drift, so two runs of the same code minutes apart
can differ by more than any useful regression bound.

``Calibrator.unit`` times one fixed unit of work that does not touch
hardyhenon: vectorized transcendental numpy streamed over two 4 MiB arrays,
which is what the angular kernels do, and a small sparse LU solve, which is
what the cylinder Newton steps do.  Of the kernels tried (short in-cache
numpy, interpreted Python loops, sparse LU of several sizes), its time
tracked the workloads' times best over 20-second blocks.  Units run
between operations all through a run (run.py) and right after each set-up
probe (setup_probe.py); a time is multiplied by ``REFERENCE_UNIT_S`` over
the median of the units timed next to it, so it reads as the seconds the
work would have taken on a machine that runs one unit in
``REFERENCE_UNIT_S``.  The raw times are kept in each run's detail file.

A change to hardyhenon does not touch the unit, so it moves the scaled
times as it moves the raw ones.  A change that also slowed unrelated numpy,
scipy or Python work in the same process (a busy thread started at import,
say) would be divided out.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: Seconds one unit takes at the reference speed: about the slowest median
#: unit time seen on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4, scipy 1.17).
REFERENCE_UNIT_S = 0.03

_STREAM = 1 << 19  # float64 elements per streamed array
_GRID = 32  # the sparse solve's Laplacian is _GRID**2 square


class Calibrator:
    def __init__(self):
        self._x = np.linspace(0.1, 2.0, _STREAM)
        self._buf = np.empty(_STREAM)
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_GRID, _GRID))
        eye = sp.eye(_GRID)
        self._matrix = (sp.kron(lap, eye) + sp.kron(eye, lap)).tocsc()
        self._rhs = np.ones(_GRID * _GRID)
        self.unit()  # warm caches and lazy imports before the first timed unit

    def unit(self) -> float:
        """Seconds one calibration unit takes now."""
        x, buf = self._x, self._buf
        t0 = time.perf_counter()
        for _ in range(2):
            np.sin(x, out=buf)
            buf **= 3
            buf *= x ** -1.7
            float(np.sum(buf))
        spla.splu(self._matrix).solve(self._rhs)
        return time.perf_counter() - t0
