"""Call counts over the benchmark workloads.

Each cached build happens once per key, the sphere profile sums its series in
as few sweeps as it can, and the linear algebra and the CLI call LAPACK and
argparse the stated number of times.  The operations are those of
``perfbench/workloads.py`` at seed 1, read as they are; the ``perfbench``
fixture puts that directory on ``sys.path`` while this module runs.

Every test clears the caches its count depends on, patches through
``monkeypatch``, and the tracer is uninstalled in teardown, so the counts hold
in any test order and nothing stays patched afterwards.
"""

import argparse
import dataclasses
import importlib
import pathlib
import sys
from types import SimpleNamespace

import pytest
import scipy.linalg
from scipy.linalg import lapack

from hardyhenon import cylinder, extension, fraclap, sphere
from hardyhenon.cylinder import CylinderGrid, solve_end_perturbed
from hardyhenon.params import validate_params

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's workloads and tracer, imported from its directory."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield SimpleNamespace(workloads=importlib.import_module("workloads").WORKLOADS,
                              Tracer=importlib.import_module("tracing").Tracer)
    for name in ("workloads", "tracing"):
        del sys.modules[name]


@pytest.fixture
def traced(perfbench):
    """A tracer installed around the test: every public hardyhenon function wrapped."""
    tracer = perfbench.Tracer()
    tracer.install()
    yield tracer
    tracer.uninstall()


def patched_names() -> dict:
    """Each hardyhenon module attribute and each library name these tests patch."""
    names = {(name, attr): obj for name, mod in list(sys.modules.items())
             if name == "hardyhenon" or name.startswith("hardyhenon.")
             for attr, obj in vars(mod).items()}
    for mod, attrs in ((lapack, ("dgetrf", "dgbtrf", "dgbsv")),
                       (scipy.linalg, ("lu_factor", "lu_solve")),
                       (argparse.ArgumentParser, ("parse_known_args",))):
        names.update({(mod.__name__, attr): getattr(mod, attr) for attr in attrs})
    return names


@pytest.fixture(autouse=True)
def originals_restored():
    """After each test, every name it patched is bound to its original again."""
    before = patched_names()
    yield
    after = patched_names()
    assert [key for key, obj in before.items() if after.get(key) is not obj] == []


def run_operations(workload, keep=lambda spec: True) -> None:
    for spec in workload.specs(SEED):
        if keep(spec):
            workload.prepare(spec)()


def test_psi_rule_built_once_per_grid_n_and_sigma(perfbench, traced):
    # the profiles' nine (n, sigma) on the default grid, which hold the
    # default (3, 1/2) solve's, plus the refined (3, 1/2) and the default
    # (4, 3/4) solves'
    sphere._psi_rule.cache_clear()
    cylinder._newton_system.cache_clear()  # so that each solve builds its system
    for name in ("extension_flux", "cylinder_energy"):
        run_operations(perfbench.workloads[name])
    assert sphere._psi_rule.cache_info().misses == 11


def test_profiles_sum_their_series_in_one_sweep(perfbench, monkeypatch):
    # one sweep of the three 2F1 series per profile, and a second only where
    # an edge node takes the direct series: 27 + 2 over the extension_flux
    # profiles
    sweep, sweeps = extension._hyp2f1_sweep, []
    monkeypatch.setattr(extension, "_hyp2f1_sweep", lambda *args: sweeps.append(1) or sweep(*args))
    run_operations(perfbench.workloads["extension_flux"], lambda spec: spec.args[0] == "profile")
    assert len(sweeps) == 29


def test_each_flux_evaluates_its_trace_once(perfbench, monkeypatch):
    # the extension's radial rule stacks its zones: 81 calls over the 81
    # extension_flux fluxes (405 when each zone, rho0 and the tail radii took
    # a call of their own)
    power_profile, calls = fraclap.power_profile, []

    def counted(*args):
        trace = power_profile(*args)
        return dataclasses.replace(trace, evaluate=lambda r: calls.append(1) or trace.evaluate(r))

    monkeypatch.setattr(fraclap, "power_profile", counted)
    run_operations(perfbench.workloads["extension_flux"], lambda spec: spec.args[0] == "flux")
    assert len(calls) == 81


def test_newton_system_built_once_per_params_and_grid(perfbench, traced):
    # two rounds of the cylinder_energy operations: one build for each of
    # their 5 distinct keys, then 5 hits
    cylinder._newton_system.cache_clear()
    for _ in range(2):
        run_operations(perfbench.workloads["cylinder_energy"])
    info = cylinder._newton_system.cache_info()
    assert (info.misses, info.hits) == (5, 5)


def test_capacitance_factored_in_place_by_dgetrf(perfbench, monkeypatch):
    # I + D G is formed in a Fortran-ordered buffer and factored in place by
    # LAPACK dgetrf: 11 calls over the 11 Newton steps of the five
    # cylinder_energy solves (11 lu_factor and 22 lu_solve calls when scipy's
    # wrappers took the solve)
    getrf, layouts, wrappers = lapack.dgetrf, [], []

    def counted(a, *args, **kwargs):
        layouts.append(a.flags.f_contiguous)
        return getrf(a, *args, **kwargs)

    monkeypatch.setattr(lapack, "dgetrf", counted)
    for name in ("lu_factor", "lu_solve"):
        monkeypatch.setattr(scipy.linalg, name, lambda *args, f=getattr(scipy.linalg, name), name=name,
                            **kwargs: wrappers.append(name) or f(*args, **kwargs))
    run_operations(perfbench.workloads["cylinder_energy"])
    assert layouts == [True] * 11
    assert wrappers == []


def test_banded_fallback_factors_once_per_step(monkeypatch):
    # the band is factored once per Newton step by LAPACK dgbtrf and solved
    # with those factors by dgbtrs: 4 dgbtrf calls and no dgbsv call over the
    # long_window and coarse_axis fallback solves, 2 Newton steps each
    calls = []
    for name in ("dgbtrf", "dgbsv"):
        monkeypatch.setattr(lapack, name, lambda *args, f=getattr(lapack, name), name=name,
                            **kwargs: calls.append(name) or f(*args, **kwargs))
    params = validate_params(4, 0.75, 0.0, 5.0 / 3.0)
    for grid in (CylinderGrid(-5.0, 5.0, 101, 33), CylinderGrid(-3.0, 3.0, 5, 33)):
        res = solve_end_perturbed(params, 0.05, grid)
        assert (res.linear_solver, res.iterations) == ("banded_lu", 2)
    assert calls == ["dgbtrf"] * 4


def test_each_cli_run_parses_once(perfbench, monkeypatch):
    # each run parses its argv once, with the named subcommand's parser: 200
    # calls over the 200 cli_reports operations (400 when the top-level
    # parser ran first)
    parse, calls = argparse.ArgumentParser.parse_known_args, []
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        lambda *args, **kwargs: calls.append(1) or parse(*args, **kwargs))
    run_operations(perfbench.workloads["cli_reports"])
    assert len(calls) == 200
