"""Shared fixtures."""

import pytest

from bohrad import weights


@pytest.fixture
def range_checks(monkeypatch):
    """The list of every r that weights._prepare_r checks during the test."""
    checks = []
    check = weights._prepare_r

    def spy(r):
        checks.append(r)
        return check(r)

    monkeypatch.setattr(weights, "_prepare_r", spy)
    return checks
