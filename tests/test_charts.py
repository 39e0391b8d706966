import re

import pytest

from randrule import (
    ChartSpec,
    InputError,
    SurveyDataset,
    SurveyRecord,
    render_diverging_chart,
    render_grouped_chart,
)

LEFT_MARGIN = 150
RIGHT_MARGIN = 24


def dataset_from(responses_by_group, question="q1", k=5):
    records = []
    for group, responses in responses_by_group.items():
        for i, r in enumerate(responses):
            records.append(SurveyRecord(f"{group}{i}", group, question, r))
    return SurveyDataset(tuple(records), category_count=k)


def rects(svg):
    return re.findall(r'<rect x="([0-9.]+)" y="([0-9.]+)" width="([0-9.]+)"', svg)


def axis_x(svg):
    return float(re.search(r'<line x1="([0-9.]+)"', svg).group(1))


class TestDivergingGeometry:
    def test_worked_example_centers_the_neutral_half(self):
        # responses 40% / 0% / 20% / 0% / 40%: the axis sits 50% into the bar
        ds = dataset_from({"g": [1, 1, 3, 5, 5]})
        spec = ChartSpec("q1", ("c1", "c2", "c3", "c4", "c5"), 2, ("g",))
        svg = render_diverging_chart(ds, spec)
        scale = 840 - LEFT_MARGIN - RIGHT_MARGIN  # one group: span is exactly 1
        segs = rects(svg)
        assert len(segs) == 5
        widths = [float(w) for _, _, w in segs]
        assert widths == pytest.approx([0.4 * scale, 0.0, 0.2 * scale, 0.0, 0.4 * scale], abs=0.01)
        bar_start = float(segs[0][0])
        assert axis_x(svg) - bar_start == pytest.approx(0.5 * scale, abs=0.01)

    def test_identical_groups_have_identical_geometry(self):
        ds = dataset_from({"g1": [1, 2, 3, 4, 5], "g2": [1, 2, 3, 4, 5]})
        spec = ChartSpec("q1", ("a", "b", "c", "d", "e"), 2, ("g1", "g2"))
        svg = render_diverging_chart(ds, spec)
        segs = rects(svg)
        assert len(segs) == 10
        first = [(x, w) for x, _, w in segs[:5]]
        second = [(x, w) for x, _, w in segs[5:]]
        assert first == second

    def test_rect_count_is_groups_times_categories(self):
        ds = dataset_from({"g1": [1, 1, 1], "g2": [5, 5], "g3": [3]})
        spec = ChartSpec("q1", ("a", "b", "c", "d", "e"), 2, ("g1", "g2", "g3"))
        svg = render_diverging_chart(ds, spec)
        assert len(rects(svg)) == 15

    def test_segment_widths_sum_to_the_full_bar(self):
        # fractions per group: g1 (1/8, 2/8, 1/8, 1/8, 3/8), g2 (0, 1/4, 2/4, 1/4, 0)
        # left extents 0.4375 and 0.5, right extents 0.5625 and 0.5
        ds = dataset_from({"g1": [1, 2, 2, 3, 4, 5, 5, 5], "g2": [2, 3, 3, 4]})
        spec = ChartSpec("q1", ("a", "b", "c", "d", "e"), 2, ("g1", "g2"))
        svg = render_diverging_chart(ds, spec)
        segs = rects(svg)
        span = max(0.4375, 0.5) + max(0.5625, 0.5)
        bar_length = (840 - LEFT_MARGIN - RIGHT_MARGIN) / span
        totals = [sum(float(w) for _, _, w in segs[start : start + 5]) for start in (0, 5)]
        # every group's bar covers exactly 100% of one bar length
        assert totals[0] == pytest.approx(bar_length, abs=0.05)
        assert totals[1] == pytest.approx(bar_length, abs=0.05)

    def test_exact_geometry_sums_to_hundred_percent(self):
        # geometry uses exact fractions; only the printed labels are rounded
        ds = dataset_from({"g1": [1, 1, 2, 3, 3, 3, 4]})
        spec = ChartSpec("q1", ("a", "b", "c", "d", "e"), 2, ("g1",))
        svg = render_diverging_chart(ds, spec)
        scale = 840 - LEFT_MARGIN - RIGHT_MARGIN
        geometry_pct = sum(float(w) for _, _, w in rects(svg)) / scale * 100.0
        assert geometry_pct == pytest.approx(100.0, abs=0.1)
        labels = [float(v) for v in re.findall(r">([0-9.]+)%<", svg)]
        # one-decimal label rounding can drift by up to 0.05 per category
        assert sum(labels) == pytest.approx(100.0, abs=0.05 * 5 + 1e-9)

    def test_deterministic_output(self):
        ds = dataset_from({"g1": [1, 2, 3], "g2": [4, 5, 5]})
        spec = ChartSpec("q1", ("a", "b", "c", "d", "e"), 2, ("g1", "g2"))
        assert render_diverging_chart(ds, spec) == render_diverging_chart(ds, spec)


class TestSpecValidation:
    def test_needs_three_categories(self):
        with pytest.raises(InputError):
            ChartSpec("q1", ("a", "b"), 0, ("g",))

    def test_neutral_index_in_range(self):
        with pytest.raises(InputError):
            ChartSpec("q1", ("a", "b", "c"), 3, ("g",))

    def test_category_count_must_match_dataset(self):
        ds = dataset_from({"g": [1, 2, 3]}, k=5)
        spec = ChartSpec("q1", ("a", "b", "c"), 1, ("g",))
        with pytest.raises(InputError):
            render_diverging_chart(ds, spec)

    def test_group_without_responses_rejected(self):
        ds = dataset_from({"g": [1, 2, 3]})
        spec = ChartSpec("q1", ("a", "b", "c", "d", "e"), 2, ("g", "missing"))
        with pytest.raises(InputError):
            render_diverging_chart(ds, spec)


class TestGroupedChart:
    def test_rect_count_and_determinism(self):
        ds = dataset_from({"g1": [1, 2, 2], "g2": [3, 4]})
        svg = render_grouped_chart(ds, "q1", ("a", "b", "c", "d", "e"), ("g1", "g2"))
        assert len(re.findall(r"<rect ", svg)) == 10
        assert svg == render_grouped_chart(ds, "q1", ("a", "b", "c", "d", "e"), ("g1", "g2"))

    def test_two_categories_render(self):
        # the diverging chart's three-category minimum does not apply here
        ds = dataset_from({"g1": [1, 2, 2], "g2": [1]}, k=2)
        svg = render_grouped_chart(ds, "q1", ("yes", "no"), ("g1", "g2"))
        assert len(re.findall(r"<rect ", svg)) == 4


def diverging(ds, labels, groups):
    return render_diverging_chart(ds, ChartSpec("q1", labels, 1, groups))


def grouped(ds, labels, groups):
    return render_grouped_chart(ds, "q1", labels, groups)


@pytest.mark.parametrize("render", [diverging, grouped])
class TestSharedChecks:
    def test_category_count_must_match_dataset(self, render):
        ds = dataset_from({"g": [1, 2, 3]}, k=5)
        with pytest.raises(InputError, match="^chart declares 3 categories but the dataset uses 5$"):
            render(ds, ("a", "b", "c"), ("g",))

    def test_needs_a_group(self, render):
        ds = dataset_from({"g": [1, 2, 3]})
        with pytest.raises(InputError, match="^chart needs at least one group$"):
            render(ds, ("a", "b", "c", "d", "e"), ())

    def test_group_without_responses_rejected(self, render):
        ds = dataset_from({"g": [1, 2, 3]})
        with pytest.raises(InputError, match="^group 'missing' has no responses for question 'q1'$"):
            render(ds, ("a", "b", "c", "d", "e"), ("g", "missing"))
