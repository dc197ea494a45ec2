"""The benchmark's span tracer finds every package name it wraps.

``perfbench/run.py --trace 1`` wraps functions where their callers look
them up (``sim.is_independent``, ``ctmc.eta``, ...).  A renamed or dropped
name would otherwise surface only when the benchmark itself runs.
"""

import importlib.util
import os
from pathlib import Path

import pytest

import csma_sic
from csma_sic import ctmc, sim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    # run.py pins the BLAS/OpenMP thread counts in os.environ on import
    monkeypatch.setattr(os, "environ", os.environ.copy())
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_uninstall(bench):
    tracer = bench.install_tracer(csma_sic)
    try:
        wrapped = list(tracer._undo)
        for owner, attr, original in wrapped:
            assert getattr(owner, attr).__wrapped__ is original
        names = {(owner, attr) for owner, attr, _ in wrapped}
        for name in ((sim, "is_independent"), (sim, "check_all_feasible"),
                     (ctmc, "eta")):
            assert name in names
    finally:
        tracer.uninstall()
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original
