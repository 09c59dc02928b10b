"""Shared test configuration: audit every campaign, cache nothing shared.

The invariant auditor (:mod:`repro.core.audit`) is opt-in for library
users (``CampaignSpec(audit=...)`` / ``repro --audit``), but the test
suite flips the module default so every campaign executed by any test
is audited — each of the ~700 tests doubles as a conservation, billing
and delivery-semantics check, and a regression that breaks an invariant
fails loudly even if no assertion looks at the affected meter.

Specs that set ``audit=False`` explicitly still opt out (the tri-state
``CampaignSpec.audit`` beats the module default), as do testbeds built
directly with ``Testbed(audit=False)`` — the default only moves the
*unspecified* case.

Commands and runners that use the default result cache write it under a
per-session temporary directory, never under ``~/.cache/repro``: a cache
entry is keyed by spec, calibration and package version, so a code
change that moves outcomes without a version bump would otherwise be
served stale results cached by an earlier run of the suite.
"""

import pytest

from repro.core import audit as audit_mod


@pytest.fixture(autouse=True)
def audit_by_default():
    previous = audit_mod.DEFAULT_AUDIT
    audit_mod.DEFAULT_AUDIT = True
    try:
        yield
    finally:
        audit_mod.DEFAULT_AUDIT = previous


@pytest.fixture(scope="session", autouse=True)
def session_result_cache(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR",
                     str(tmp_path_factory.mktemp("campaign-cache")))
        yield
