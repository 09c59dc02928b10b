"""Run the doctest examples embedded in module and class docstrings."""

import doctest

import pytest

import repro.core.arrivals
import repro.core.figures
import repro.core.workflow
import repro.sim
import repro.sim.rng
import repro.storage.payload
import repro.telemetry.spans
import repro.workloads.ml.dataset
import repro.workloads.ml.pca
import repro.workloads.video.video

MODULES = [
    repro.sim,
    repro.sim.rng,
    repro.storage.payload,
    repro.telemetry.spans,
    repro.core.arrivals,
    repro.core.figures,
    repro.core.workflow,
    repro.workloads.ml.dataset,
    repro.workloads.ml.pca,
    repro.workloads.video.video,
]


@pytest.mark.parametrize("module", MODULES,
                         ids=[module.__name__ for module in MODULES])
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures"
    assert results.attempted > 0, f"{module.__name__} has no doctests"
