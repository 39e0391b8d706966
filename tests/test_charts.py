import re

import pytest

from randrule import InputError, render_diverging_chart, render_grouped_chart

LEFT_MARGIN = 150
RIGHT_MARGIN = 24


def counts_from(responses_by_group, k=5):
    """The groups and their count rows: row g, entry c counts code c + 1."""
    rows = [[responses.count(code) for code in range(1, k + 1)] for responses in responses_by_group.values()]
    return tuple(responses_by_group), rows


def diverging_chart(responses_by_group, labels=("a", "b", "c", "d", "e")):
    return render_diverging_chart("q1", *counts_from(responses_by_group, len(labels)), labels, 2)


def rects(svg):
    return re.findall(r'<rect x="([0-9.]+)" y="([0-9.]+)" width="([0-9.]+)"', svg)


def axis_x(svg):
    return float(re.search(r'<line x1="([0-9.]+)"', svg).group(1))


class TestDivergingGeometry:
    def test_worked_example_centers_the_neutral_half(self):
        # responses 40% / 0% / 20% / 0% / 40%: the axis sits 50% into the bar
        svg = diverging_chart({"g": [1, 1, 3, 5, 5]}, ("c1", "c2", "c3", "c4", "c5"))
        scale = 840 - LEFT_MARGIN - RIGHT_MARGIN  # one group: span is exactly 1
        segs = rects(svg)
        assert len(segs) == 5
        widths = [float(w) for _, _, w in segs]
        assert widths == pytest.approx([0.4 * scale, 0.0, 0.2 * scale, 0.0, 0.4 * scale], abs=0.01)
        bar_start = float(segs[0][0])
        assert axis_x(svg) - bar_start == pytest.approx(0.5 * scale, abs=0.01)

    def test_identical_groups_have_identical_geometry(self):
        svg = diverging_chart({"g1": [1, 2, 3, 4, 5], "g2": [1, 2, 3, 4, 5]})
        segs = rects(svg)
        assert len(segs) == 10
        first = [(x, w) for x, _, w in segs[:5]]
        second = [(x, w) for x, _, w in segs[5:]]
        assert first == second

    def test_rect_count_is_groups_times_categories(self):
        svg = diverging_chart({"g1": [1, 1, 1], "g2": [5, 5], "g3": [3]})
        assert len(rects(svg)) == 15

    def test_segment_widths_sum_to_the_full_bar(self):
        # fractions per group: g1 (1/8, 2/8, 1/8, 1/8, 3/8), g2 (0, 1/4, 2/4, 1/4, 0)
        # left extents 0.4375 and 0.5, right extents 0.5625 and 0.5
        svg = diverging_chart({"g1": [1, 2, 2, 3, 4, 5, 5, 5], "g2": [2, 3, 3, 4]})
        segs = rects(svg)
        span = max(0.4375, 0.5) + max(0.5625, 0.5)
        bar_length = (840 - LEFT_MARGIN - RIGHT_MARGIN) / span
        totals = [sum(float(w) for _, _, w in segs[start : start + 5]) for start in (0, 5)]
        # every group's bar covers exactly 100% of one bar length
        assert totals[0] == pytest.approx(bar_length, abs=0.05)
        assert totals[1] == pytest.approx(bar_length, abs=0.05)

    def test_exact_geometry_sums_to_hundred_percent(self):
        # geometry uses exact fractions; only the printed labels are rounded
        svg = diverging_chart({"g1": [1, 1, 2, 3, 3, 3, 4]})
        scale = 840 - LEFT_MARGIN - RIGHT_MARGIN
        geometry_pct = sum(float(w) for _, _, w in rects(svg)) / scale * 100.0
        assert geometry_pct == pytest.approx(100.0, abs=0.1)
        labels = [float(v) for v in re.findall(r">([0-9.]+)%<", svg)]
        # one-decimal label rounding can drift by up to 0.05 per category
        assert sum(labels) == pytest.approx(100.0, abs=0.05 * 5 + 1e-9)

    def test_deterministic_output(self):
        groups = {"g1": [1, 2, 3], "g2": [4, 5, 5]}
        assert diverging_chart(groups) == diverging_chart(groups)


class TestSpecValidation:
    """The diverging chart's own checks on its labels and neutral index."""

    def test_needs_three_categories(self):
        with pytest.raises(InputError, match="^diverging charts need >= 3 categories, got 2$"):
            render_diverging_chart("q1", ("g",), [[1, 1]], ("a", "b"), 0)

    def test_neutral_index_in_range(self):
        with pytest.raises(InputError, match="^neutral index 3 out of range for 3 categories$"):
            render_diverging_chart("q1", ("g",), [[1, 1, 1]], ("a", "b", "c"), 3)

    def test_group_without_responses_rejected(self):
        with pytest.raises(InputError):
            render_diverging_chart("q1", ("g", "missing"), [[1, 1, 1, 0, 0], [0] * 5], ("a", "b", "c", "d", "e"), 2)


class TestGroupedChart:
    def test_rect_count_and_determinism(self):
        chart = ("q1", *counts_from({"g1": [1, 2, 2], "g2": [3, 4]}), ("a", "b", "c", "d", "e"))
        svg = render_grouped_chart(*chart)
        assert len(re.findall(r"<rect ", svg)) == 10
        assert svg == render_grouped_chart(*chart)

    def test_two_categories_render(self):
        # the diverging chart's three-category minimum does not apply here
        svg = render_grouped_chart("q1", *counts_from({"g1": [1, 2, 2], "g2": [1]}, k=2), ("yes", "no"))
        assert len(re.findall(r"<rect ", svg)) == 4


def diverging(groups, counts, labels):
    return render_diverging_chart("q1", groups, counts, labels, 1)


def grouped(groups, counts, labels):
    return render_grouped_chart("q1", groups, counts, labels)


FIVE = ("a", "b", "c", "d", "e")


@pytest.mark.parametrize("render", [diverging, grouped])
class TestSharedChecks:
    def test_counts_rows_must_hold_k_entries(self, render):
        for row in ([1, 1, 1], [1, 1, 1, 0, 0, 0], [1, 1, -1, 1, 1], [[1, 1, 1, 1, 1]]):
            with pytest.raises(InputError, match="^group 'g' needs 5 non-negative counts for question 'q1'$"):
                render(("g",), [row], FIVE)

    def test_one_count_row_per_group(self, render):
        with pytest.raises(InputError, match="^chart has 2 groups but 1 count rows$"):
            render(("g", "h"), [[1, 1, 1, 1, 1]], FIVE)

    def test_needs_a_group(self, render):
        with pytest.raises(InputError, match="^chart needs at least one group$"):
            render((), [], FIVE)

    def test_group_without_responses_rejected(self, render):
        with pytest.raises(InputError, match="^group 'missing' has no responses for question 'q1'$"):
            render(("g", "missing"), [[1, 1, 1, 0, 0], [0, 0, 0, 0, 0]], FIVE)

    @pytest.mark.parametrize("text", ["g\x01x", "g\ud800", "g\ufffe"])
    def test_text_that_xml_cannot_hold_is_refused(self, render, text):
        with pytest.raises(InputError, match="holds a character that XML cannot hold"):
            render((text,), [[1, 1, 1, 1, 1]], FIVE)

    def test_text_xml_can_hold_parses(self, render):
        minidom = pytest.importorskip("xml.dom.minidom")
        svg = render(("tab\tand <&> \U0001f600 \ufffd",), [[1, 1, 1, 1, 1]], FIVE)
        minidom.parseString(svg.encode())
