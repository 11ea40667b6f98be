"""Shared fixtures."""

import pytest

import cslab.positivity


@pytest.fixture
def lying_screener(monkeypatch):
    """Make the spider screeners reject spider:3,2,1, which is e-positive,
    so that its screener trace contradicts its e-expansion."""
    honest = cslab.positivity.screen_spider

    def screen(legs):
        trace = honest(legs)
        if tuple(legs) == (3, 2, 1):
            trace += (("planted", False, "rejects an e-positive spider"),)
        return trace

    monkeypatch.setattr(cslab.positivity, "screen_spider", screen)
