"""Shared fixtures."""

import pytest

import cslab.positivity
import cslab.symfunc


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


@pytest.fixture
def rows_without_diagonal(monkeypatch):
    """Strip every basis element's own key from its conversion row, so that
    the m->p peel meets a pivot row that misses its diagonal.  The rows
    memo is cleared on both sides, since rows built meanwhile read stripped
    ones."""
    row = cslab.symfunc._row

    def stripped(pair, size, mu):
        return tuple((key, c) for key, c in row(pair, size, mu) if key != mu)

    row.cache_clear()
    monkeypatch.setattr(cslab.symfunc, "_row", stripped)
    yield
    row.cache_clear()
