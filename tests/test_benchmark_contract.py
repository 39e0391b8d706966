"""The names the benchmark's tracer rebinds must stay where it looks for them.

``perfbench/tracing.py`` times each layer by rebinding module globals and
class methods of the package. If a refactor moves one, that layer reads 0 at
the next benchmark run instead of failing; these tests fail first. One traced
op of a small instance of each workload checks that every layer the workload
uses reads non-zero.
"""

import sys
from pathlib import Path

import pytest

import randrule.survey
from randrule import SurveyDataset, SurveyRecord, compare_groups, load_survey_csv
from test_survey import Routes

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


# smaller instances of each workload: the smoke checks wiring, not speed
SMALL = {
    "mc-overlap": {"n": 20_000},
    "mc-gauss": {"n": 5_000},
    "play": {"iters": 500, "rounds": 500, "report_rounds": 100},
    "survey-report": {"group_sizes": (60, 40, 20, 14)},
}


def traced_op(tracing, name, workdir):
    """(layer metrics, workload) of one traced op of a small instance of the workload.

    The op is not checked: at 500 iterations FP is no 0.05-Nash equilibrium.
    """
    workload = type(name, (tracing.workloads.WORKLOADS[name],), SMALL[name])(7, workdir)
    tracer = tracing.Tracer(layers=True)
    with tracer.installed():
        tracer.run_op(0, workload.op)
    tracer.probe(0)
    spans = tracer.spans
    return tracing._per_op(spans, tracing._self_ns(spans), list(range(len(spans)))), workload


@pytest.mark.parametrize("name, width", [("mc-overlap", 1), ("mc-gauss", 8)])
def test_monte_carlo_workloads_trace_sampling_decisions_and_reduction(tracing, tmp_path, name, width):
    metrics, workload = traced_op(tracing, name, tmp_path)
    for layer in ("mixtures.sample_ms", "decisions.decide_ms", "decisions.reduce_ms"):
        assert metrics[layer] > 0, layer
    # two Monte Carlo calls, each drawing an (n, 1 + width) table of uniforms
    assert metrics["mixtures.uniforms"] == 2 * workload.n * (1 + width)


def test_play_traces_fictitious_play_matches_the_trace_and_the_value(tracing, tmp_path):
    metrics, _ = traced_op(tracing, "play", tmp_path)
    for layer in ("games.fp_ms", "repeated.run_ms", "repeated.trace_csv_ms", "games.value_ms"):
        assert metrics[layer] > 0, layer


def test_survey_report_traces_loading_rank_tests_and_charts(tracing, tmp_path):
    metrics, _ = traced_op(tracing, "survey-report", tmp_path)
    for layer in ("survey.load_ms", "report.bytes_written"):
        assert metrics[layer] > 0, layer
    # 5 ordinal questions x 6 pairs of the 4 groups; one chart per question
    assert metrics["ordinal.mwu_calls"] == 30 and metrics["charts.count"] == 6


def test_the_survey_workload_file_takes_the_byte_route(tracing, tmp_path, monkeypatch):
    # a silent fall back to csv.reader gives the same datasets, so only this test sees it
    workload = tracing.workloads.WORKLOADS["survey-report"](1, tmp_path)
    routes = Routes(monkeypatch)
    dataset = load_survey_csv(workload.csv_path)
    assert (routes.byte, routes.csv) == (1, 0)
    assert len(dataset.records) == workload.items
