"""Fixtures shared by the test modules."""

import pytest

from tcore import qseries


@pytest.fixture
def graded_runs(monkeypatch) -> list:
    """The (sigma, pieces) of every run of the series layer's graded
    recurrence (qseries._graded) during the test, in order."""
    runs = []
    graded = qseries._graded

    def spy(*args, **kwargs):
        out = graded(*args, **kwargs)
        runs.append((kwargs.get("sigma"), out))
        return out

    monkeypatch.setattr(qseries, "_graded", spy)
    return runs
