"""Shared fixtures: corpora loaded once, full campaign cached per session."""

from __future__ import annotations

import pytest

from repro.core.orchestrator import CampaignConfig, run_full_campaign
from repro.core.registry import load_all_suites


@pytest.fixture(scope="session")
def corpus():
    """The full unit-test corpus with every app suite registered."""
    return load_all_suites()


@pytest.fixture(scope="session")
def full_report(corpus):
    """One full six-application campaign, shared by all evaluation tests.

    Takes ~20s; every test asserting campaign-level facts reuses it.
    """
    return run_full_campaign(CampaignConfig())
