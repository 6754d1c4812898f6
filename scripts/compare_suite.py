#!/usr/bin/env python3
"""Compare two ``hardyhenon suite`` JSON reports criterion by criterion.

Exits 1 when a criterion's ``passed`` verdict flips, when the reports do not
hold the same criteria and detail entries, when a non-numeric detail
differs, or when a numeric detail moves by more than ``--rel`` relative.
Entries that are rounding noise or tiny errors, whose relative change says
nothing, are compared in absolute terms instead (``ABSOLUTE``).

Usage:
    python scripts/compare_suite.py PARENT.json CHANGE.json [--rel 1e-6]

where each file is the stdout of ``hardyhenon suite``.
"""

import argparse
import json
import math
import sys

# (criterion index, top-level details key) -> absolute tolerance; the entries
# of criteria 1, 3 and 8 and criterion 5's quadrature miss sit near rounding
# and get 1% of their own gate
ABSOLUTE = {
    (1, "max_rel_asymmetry"): 1e-14,
    (2, "per_tuple_max_rel_error"): 1e-12,
    (2, "worst"): 1e-12,
    (3, "kappa_half_err"): 1e-16,
    (3, "unit_mass_errors"): 1e-10,
    (5, "relative_drift"): 1e-14,
    (5, "profile_quadrature_miss"): 1e-8,
    (8, "amplitude_invariance_worst"): 1e-14,
    (8, "involution_worst"): 1e-14,
    (8, "tau_negation_worst"): 1e-14,
}


def _leaves(obj, path=()):
    """(path, value) for every scalar inside nested dicts and lists."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, path + (i,))
    else:
        yield path, obj


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(parent: dict, change: dict, rel: float) -> tuple[list[str], list[str]]:
    """Per-criterion summary lines and the list of failures."""
    old = {c["index"]: c for c in parent["results"]["criteria"]}
    new = {c["index"]: c for c in change["results"]["criteria"]}
    failures = []
    if old.keys() != new.keys():
        failures.append(f"criteria differ: {sorted(old)} vs {sorted(new)}")
    summary = []
    for i in sorted(old.keys() & new.keys()):
        a, b = old[i], new[i]
        if a["passed"] != b["passed"]:
            failures.append(f"criterion {i}: passed {a['passed']} -> {b['passed']}")
        la, lb = dict(_leaves(a["details"])), dict(_leaves(b["details"]))
        if la.keys() != lb.keys():
            failures.append(f"criterion {i}: detail entries differ")
        worst_rel, worst_at = 0.0, None
        for path in sorted(la.keys() & lb.keys(), key=str):
            x, y = la[path], lb[path]
            where = f"criterion {i} {'/'.join(map(str, path))}"
            if not (_is_number(x) and _is_number(y)):
                if x != y:
                    failures.append(f"{where}: {x!r} -> {y!r}")
                continue
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            diff = abs(x - y)
            tol = ABSOLUTE.get((i, path[0]))
            if tol is not None:
                if not diff <= tol:
                    failures.append(f"{where}: {x!r} -> {y!r}, moved {diff:.3g} > {tol:g} absolute")
                continue
            moved = diff / max(abs(x), abs(y))
            if not moved <= rel:
                failures.append(f"{where}: {x!r} -> {y!r}, moved {moved:.3g} > {rel:g} relative")
            if not moved <= worst_rel:
                worst_rel, worst_at = moved, "/".join(map(str, path))
        verdict = f"{a['passed']} -> {b['passed']}"
        largest = f"largest relative move {worst_rel:.3g} at {worst_at}" if worst_at else "no relative move"
        summary.append(f"criterion {i} ({a['name']}): passed {verdict}, {largest}")
    return summary, failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="suite report of the reference code")
    ap.add_argument("change", help="suite report of the changed code")
    ap.add_argument("--rel", type=float, default=1e-6, help="relative bound on numeric details")
    args = ap.parse_args()
    with open(args.parent) as f:
        parent = json.load(f)
    with open(args.change) as f:
        change = json.load(f)
    summary, failures = compare(parent, change, args.rel)
    print("\n".join(summary))
    for line in failures:
        print("FAIL " + line)
    print(f"{'FAIL' if failures else 'OK'}: {len(failures)} failure(s) at --rel {args.rel:g}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
