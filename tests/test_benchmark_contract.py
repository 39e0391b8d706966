"""The names the benchmark's tracer rebinds must stay where it looks for them.

``perfbench/tracing.py`` times each layer by rebinding module globals and
class methods of the package. If a refactor moves one, that layer reads 0 at
the next benchmark run instead of failing; these tests fail first.
"""

import sys
from pathlib import Path

import pytest

import randrule.survey
from randrule import SurveyDataset, SurveyRecord, compare_groups

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing


def test_every_traced_name_resolves_to_a_callable(tracing):
    assert tracing._FUNCTIONS and tracing._METHODS
    for owner, attr, span, _ in tracing._FUNCTIONS + tracing._METHODS:
        assert callable(owner.__dict__.get(attr)), f"{span}: {owner.__name__}.{attr} is not defined there"


def test_compare_groups_calls_the_survey_modules_mann_whitney_u(monkeypatch):
    # the tracer counts rank tests by rebinding this name
    calls = []
    original = randrule.survey.mann_whitney_u

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(randrule.survey, "mann_whitney_u", counting)
    records = [SurveyRecord(f"r{i}", "ab"[i % 2], "q1", 1 + i % 5) for i in range(10)]
    compare_groups(SurveyDataset(records), "q1", "a", "b")
    assert len(calls) == 1
