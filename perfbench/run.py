"""Benchmark of the hardyhenon toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run repeats whole rounds of the
workload's operations for about S seconds and checks every output.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds and prints the per-layer metrics.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  End-to-end times are scaled to reference
seconds by calibration units timed between the operations (see
calibration.py); the raw times go to the run's detail file.  See
perfbench/README.md.
"""

import os

# All load comes from this one process; pin the native thread pools before
# numpy is imported so that no more threads run than the box has cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 5
# Seconds of operations between two calibration units (see calibration.py).
CALIBRATE_EVERY_S = 0.5
# Untraced runs take at least three rounds, so that each operation of the
# slowest workload (cylinder_energy, one round is 7-15 s) still gets a median
# of three: with two, its op_p90_s spread up to 0.16 between runs.
MIN_ROUNDS = 3


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q of them at or below it."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters (see setup_probe.py): raw, and each
    scaled to reference seconds by the calibration units its probe timed."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, unit = map(float, done.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds * calibration.REFERENCE_UNIT_S / unit)
    return raw, scaled


def run_round(ops, clock):
    """One pass over every operation.

    Returns the raw latencies, the round's factor from raw to reference
    seconds and the (op, reason) failures.  A calibration unit runs whenever
    CALIBRATE_EVERY_S has passed since the last one, and after the last
    operation; the factor comes from the units on either side of the round
    and within it.
    """
    first = len(clock.units) - 1
    latencies, failures = [], []
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # an operation that raises is a failed operation
            latencies.append(time.perf_counter() - t0)
            failures.append((op, f"{type(exc).__name__}: {exc}"))
        else:
            latencies.append(time.perf_counter() - t0)
            reason = op.check(out)
            if reason is not None:
                failures.append((op, reason))
        if i == len(ops) - 1 or time.perf_counter() - clock.last >= CALIBRATE_EVERY_S:
            clock.mark()
    return latencies, clock.factor(first), failures


class Clock:
    """Calibration units timed all through a run (see calibration.py)."""

    def __init__(self):
        self._cal = calibration.Calibrator()
        self.units: list[float] = []
        self.last = 0.0
        self.mark()

    def mark(self) -> None:
        self.units.append(self._cal.unit())
        self.last = time.perf_counter()

    def factor(self, first: int) -> float:
        """Reference seconds per raw second, from the units since ``first``."""
        return calibration.REFERENCE_UNIT_S / statistics.median(self.units[first:])


class Op:
    __slots__ = ("spec", "call", "check")

    def __init__(self, spec, call, check):
        self.spec, self.call, self.check = spec, call, check


class Measurement:
    def __init__(self):
        # latencies and factor to reference seconds of each untraced round
        self.plain_rounds: list[list[float]] = []
        self.factors: list[float] = []
        # per untraced round, and per operation its median over those rounds:
        # in reference seconds, and raw_ as measured
        self.plain_walls, self.op_medians = [], []
        self.raw_plain_walls, self.raw_op_medians = [], []
        self.raw_traced_walls: list[float] = []
        self.layer_totals: dict[str, float] = {}
        self.failures: dict[str, list] = {}  # label -> [named fault, reason, rounds failed]
        self.attempted = self.failed = 0
        self.spans: list[dict] = []  # of the last traced round


def measure(ops, seconds: float, tracer, clock: Clock) -> Measurement:
    """Repeat whole rounds while another one fits in ``seconds``.

    Untraced runs take at least MIN_ROUNDS rounds.  With a tracer, each cycle
    is an untraced round followed by a traced one.  Each untraced round is
    scaled by its own factor, and each operation's latency is summarised by
    its median over the untraced rounds.
    """
    m = Measurement()
    start = time.perf_counter()
    cycle_times = []
    min_cycles = 1 if tracer else MIN_ROUNDS
    while (len(cycle_times) < min_cycles
           or time.perf_counter() - start + statistics.median(cycle_times) <= seconds):
        cycle_start = time.perf_counter()
        for traced in ((False, True) if tracer else (False,)):
            if traced:
                tracer.reset()
                tracer.install()
            try:
                round_start = time.perf_counter()
                lat, factor, fails = run_round(ops, clock)
            finally:
                if traced:
                    tracer.uninstall()
            m.attempted += len(lat)
            m.failed += len(fails)
            for op, reason in fails:
                m.failures.setdefault(op.spec.label, [op.spec.faulty, reason, 0])[2] += 1
            if traced:
                m.raw_traced_walls.append(sum(lat))
                for key, value in tracer.summary().items():
                    m.layer_totals[key] = m.layer_totals.get(key, 0.0) + value
                m.spans = tracer.span_dicts(round_start)
            else:
                m.plain_rounds.append(lat)
                m.factors.append(factor)
        cycle_times.append(time.perf_counter() - cycle_start)
    scaled = [[t * f for t in lat] for lat, f in zip(m.plain_rounds, m.factors)]
    m.raw_plain_walls, m.plain_walls = [sum(r) for r in m.plain_rounds], [sum(r) for r in scaled]
    m.raw_op_medians = [statistics.median(op) for op in zip(*m.plain_rounds)]
    m.op_medians = [statistics.median(op) for op in zip(*scaled)]
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in (ROOT / "src" / "hardyhenon" / "__init__.py", ROOT / "docs" / "report_schema.json"):
        if not need.is_file():
            sys.stderr.write(f"perfbench: {need.relative_to(ROOT)} not found; run from a full checkout\n")
            return 2
    sys.path.insert(0, str(ROOT / "src"))

    import reference
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    wl = workloads.WORKLOADS[args.workload]

    raw_setups, scaled_setups = ([], []) if args.trace else measure_setup(args.workload, args.seed)

    # the benchmark's own work, outside every timed region
    reference.self_check()
    specs = wl.specs(args.seed)
    ops = []
    for spec in specs:
        ref = wl.reference(spec)
        ops.append(Op(spec, wl.prepare(spec), lambda out, spec=spec, ref=ref: wl.check(spec, ref, out)))

    tracer = tracing.Tracer() if args.trace else None
    clock = Clock()
    m = measure(ops, args.seconds, tracer, clock)
    if tracer:
        from hardyhenon import quadrature

        info = quadrature.gauss_jacobi_01.cache_info()
        values = {key: value / len(m.raw_traced_walls) for key, value in m.layer_totals.items()}
        values["quadrature.gauss_jacobi_misses"] = info.misses
        lookups = info.hits + info.misses
        values["quadrature.gauss_jacobi_hit_ratio"] = info.hits / lookups if lookups else 0.0
        values["trace.overhead_s"] = (statistics.median(m.raw_traced_walls)
                                     - statistics.median(m.raw_plain_walls))
        metrics = {key: {"value": value, "unit": tracing.unit(key)} for key, value in values.items()}
    else:
        raw = {
            "setup_s": statistics.median(raw_setups),
            "wall_s": statistics.median(m.raw_plain_walls),
            "op_p50_s": percentile(m.raw_op_medians, 50),
            "op_p90_s": percentile(m.raw_op_medians, 90),
        }
        scaled = {
            "setup_s": statistics.median(scaled_setups),
            "wall_s": statistics.median(m.plain_walls),
            "op_p50_s": percentile(m.op_medians, 50),
            "op_p90_s": percentile(m.op_medians, 90),
        }
        metrics = {key: {"value": value, "unit": "s"} for key, value in scaled.items()}
        metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "unit": "MB"}

    unexpected = [label for label, (faulty, _, _) in m.failures.items() if not faulty]
    result = {"correct": not unexpected, "attempted": m.attempted, "failed": m.failed,
              "metrics": metrics}
    rounds = len(m.raw_plain_walls) + len(m.raw_traced_walls)

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, workload=args.workload, seed=args.seed, rounds=rounds,
                  operations_per_round=len(ops), raw_metrics_s=raw if not tracer else None,
                  raw_round_walls_s=m.raw_plain_walls, raw_traced_round_walls_s=m.raw_traced_walls,
                  raw_setup_s=raw_setups, raw_op_medians_s=m.raw_op_medians,
                  reference_unit_s=calibration.REFERENCE_UNIT_S, round_factors=m.factors,
                  calibration_units_s=clock.units,
                  failures=[{"operation": label, "named_fault": faulty, "reason": reason, "rounds": n}
                            for label, (faulty, reason, n) in m.failures.items()])
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        Path(f"{stem}.spans.json").write_text(json.dumps(m.spans) + "\n")

    for label, (faulty, reason, n) in m.failures.items():
        kind = "named fault" if faulty else "UNEXPECTED"
        print(f"failed [{kind}] {args.workload}: {label}: {reason} (in {n} of {rounds} rounds)")
    print(f"{args.workload}: {len(ops)} operations per round, {rounds} rounds, "
          f"{m.attempted} attempted, {m.failed} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
