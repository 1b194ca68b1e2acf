"""Shared fixtures for the experiment tests."""

import pytest

from repro.engine.api import Engine
from repro.experiments import ExperimentRunner


@pytest.fixture(scope="module")
def runner(tmp_path_factory) -> ExperimentRunner:
    """One runner per module on the session's hermetic store.  A module
    fixture is built before the function-scoped store fixture sets
    ``REPRO_CACHE_DIR``, so the store is named here."""
    store = tmp_path_factory.getbasetemp() / "repro-cache"
    return ExperimentRunner(engine=Engine(cache_dir=store))
