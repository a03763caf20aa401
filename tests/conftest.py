"""Shared test fixtures and hypothesis profiles.

Every test gets its own cross-run registry root: the ``system`` and
``analyze`` CLIs record runs automatically, and without this guard a
full test run would append dozens of records to the developer's real
``.multinoc/runs`` history (or the repo checkout in CI).

Two hypothesis profiles are registered: ``ci``, loaded by default, and
``deep`` (``pytest --hypothesis-profile=deep``), which multiplies the
example budget of the suites that size theirs with
:func:`tests.hypothesis_budget.scaled` by ten.
"""

import pytest
from hypothesis import settings

from .hypothesis_budget import CI_EXAMPLES

settings.register_profile("ci", max_examples=CI_EXAMPLES)
settings.register_profile("deep", max_examples=10 * CI_EXAMPLES)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def _isolated_run_registry(tmp_path, monkeypatch):
    monkeypatch.setenv("MULTINOC_RUNS_DIR", str(tmp_path / "runs-registry"))
