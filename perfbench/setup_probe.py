"""Time one set-up from a fresh interpreter, as run.py's set-up metric.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds from interpreter start-up (before any import) until the
first operation of WORKLOAD could start: ``import hardyhenon`` and the
workload's one-time preparation of program inputs.  Reference values are not
built here; they are the benchmark's own work.  Then, outside the timed
part, it prints the median of three calibration units (see calibration.py),
timed in the same interpreter right after the set-up, so that run.py can
scale the set-up time to reference seconds.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports hardyhenon)

wl = workloads.WORKLOADS[sys.argv[1]]
calls = [wl.prepare(spec) for spec in wl.specs(int(sys.argv[2]))]
elapsed = time.perf_counter() - _T0

import calibration  # noqa: E402

cal = calibration.Calibrator()
print(elapsed, sorted(cal.unit() for _ in range(3))[1])
