import csv
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from randrule import (
    FrequencyExploiter,
    HarmScenario,
    InputError,
    MixedPolicy,
    MixedStrategy,
    NormalFormGame,
    PurePolicy,
    build_harm_game,
    build_matching_pennies,
    build_rock_paper_scissors,
    exploitability_report,
    game_value,
    run_repeated,
    zero_sum_game,
)
from randrule import repeated


def mixed(*probs):
    return MixedPolicy(MixedStrategy(np.array(probs)))


class TestDeterminism:
    def test_identical_seed_replays_the_trace(self):
        g = build_matching_pennies()
        t1, s1 = run_repeated(g, mixed(0.5, 0.5), FrequencyExploiter(), 500, seed=11)
        t2, s2 = run_repeated(g, mixed(0.5, 0.5), FrequencyExploiter(), 500, seed=11)
        assert np.array_equal(t1.row_actions, t2.row_actions)
        assert np.array_equal(t1.col_actions, t2.col_actions)
        assert s1.avg_row_payoff == s2.avg_row_payoff

    def test_different_seeds_differ(self):
        g = build_matching_pennies()
        t1, _ = run_repeated(g, mixed(0.5, 0.5), mixed(0.5, 0.5), 200, seed=1)
        t2, _ = run_repeated(g, mixed(0.5, 0.5), mixed(0.5, 0.5), 200, seed=2)
        assert not np.array_equal(t1.row_actions, t2.row_actions)

    def test_a_pure_side_draws_no_uniforms(self, monkeypatch):
        # each side has its own sub-stream, so the other side's draws do not move
        draws = []
        real = repeated.generator

        def counting(seed, *key):
            gen = real(seed, *key)

            def random(size):
                draws.append((key, size))
                return gen.random(size)

            return SimpleNamespace(random=random)

        monkeypatch.setattr(repeated, "generator", counting)
        run_repeated(build_rock_paper_scissors(), PurePolicy(2), FrequencyExploiter(), 300, seed=9)
        run_repeated(build_rock_paper_scissors(), mixed(0.2, 0.5, 0.3), PurePolicy(1), 300, seed=9)
        assert draws == [((1,), 300), ((0,), 300)]


class TestBookkeeping:
    def test_payoffs_are_matrix_lookups(self, tmp_path):
        g = NormalFormGame([[0.1, -2.5, 3.0], [1.5, 0.0, -0.7]], [[-0.3, 2.0, 0.5], [0.0, -1.25, 4.0]])
        trace, _ = run_repeated(g, mixed(0.4, 0.6), mixed(0.6, 0.2, 0.2), 300, seed=4)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert trace.rounds == len(rows) == 300
        for t, r in enumerate(rows):
            i, j = int(r["row_action"]), int(r["col_action"])
            assert (int(r["round"]), i, j) == (t, trace.row_actions[t], trace.col_actions[t])
            assert (float(r["row_payoff"]), float(r["col_payoff"])) == (g.row_payoff[i, j], g.col_payoff[i, j])

    def test_mixed_matches_on_one_decimal_payoffs_average_exactly(self):
        # a float sum of these per-round payoffs missed the correctly rounded mean on 8 of the 20 seeds
        g = zero_sum_game(build_rock_paper_scissors().row_payoff * 0.1)
        for seed in range(20):
            trace, summary = run_repeated(g, mixed(0.2, 0.5, 0.3), mixed(0.6, 0.2, 0.2), 20_000, seed=seed)
            cells = Counter(zip(trace.row_actions.tolist(), trace.col_actions.tolist()))
            mean = sum(Fraction(g.row_payoff[i, j]) * c for (i, j), c in cells.items()) / 20_000
            assert (summary.avg_row_payoff, summary.avg_col_payoff) == (float(mean), float(-mean))

    def test_zero_sum_averages_cancel_exactly(self):
        g = build_matching_pennies()
        _, summary = run_repeated(g, mixed(0.3, 0.7), FrequencyExploiter(), 1000, seed=6)
        assert summary.avg_row_payoff + summary.avg_col_payoff == 0.0

    def test_frequencies_sum_to_one(self):
        g = build_rock_paper_scissors()
        _, summary = run_repeated(g, mixed(0.2, 0.5, 0.3), PurePolicy(0), 400, seed=2)
        assert summary.row_frequencies.sum() == pytest.approx(1.0, abs=1e-12)
        assert summary.col_frequencies.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mixed_frequencies_converge_to_the_strategy(self):
        g = build_rock_paper_scissors()
        for seed in (3, 14, 159):
            _, summary = run_repeated(g, mixed(0.2, 0.5, 0.3), PurePolicy(0), 10_000, seed=seed)
            assert np.max(np.abs(summary.row_frequencies - [0.2, 0.5, 0.3])) <= 0.03

    def test_trace_csv_round_trip(self, tmp_path):
        g = build_matching_pennies()
        trace, _ = run_repeated(g, PurePolicy(0), FrequencyExploiter(), 50, seed=8)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "row_action", "col_action", "row_payoff", "col_payoff"]
        assert len(rows) == 51
        assert rows[1][0] == "0"
        assert int(rows[3][1]) == trace.row_actions[2]

    def test_trace_records_mirror_the_arrays(self, tmp_path):
        g = build_rock_paper_scissors()
        trace, _ = run_repeated(g, mixed(0.2, 0.5, 0.3), PurePolicy(1), 20, seed=6)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 20
        for t, (rnd, i, j, row_payoff, col_payoff) in enumerate(rows):
            i, j = int(i), int(j)
            assert (int(rnd), i, j) == (t, trace.row_actions[t], trace.col_actions[t])
            assert float(row_payoff) == g.row_payoff[i, j]
            assert float(col_payoff) == g.col_payoff[i, j]

    def test_trace_csv_memory_does_not_grow_with_the_rounds(self, tmp_path):
        trace, _ = run_repeated(build_rock_paper_scissors(), PurePolicy(0), FrequencyExploiter(), 100_000, seed=2)
        tracemalloc.start()
        try:
            trace.write_csv(tmp_path / "trace.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block of rounds at a time; a byte matrix of all 1e5 rounds alone takes about 2 MB
        assert peak < 2**20


class TestExploitation:
    def test_pure_heads_is_punished_in_matching_pennies(self):
        g = build_matching_pennies()
        _, summary = run_repeated(g, PurePolicy(0), FrequencyExploiter(), 1000, seed=0)
        assert summary.avg_col_payoff >= 0.95

    def test_pure_rock_is_answered_with_paper(self):
        g = build_rock_paper_scissors()
        _, summary = run_repeated(g, PurePolicy(0), FrequencyExploiter(), 1000, seed=0)
        assert summary.avg_col_payoff >= 0.95
        assert summary.col_frequencies[1] >= 0.95  # paper covers rock

    def test_pure_policies_lose_more_than_half_the_value_margin(self):
        for game in (build_matching_pennies(), build_rock_paper_scissors()):
            _, summary = run_repeated(game, PurePolicy(0), FrequencyExploiter(), 1000, seed=123)
            assert summary.avg_col_payoff - 0.0 > 0.5

    def test_equilibrium_mix_is_not_exploitable(self):
        g = build_matching_pennies()
        inside = 0
        for seed in range(20):
            _, summary = run_repeated(g, mixed(0.5, 0.5), FrequencyExploiter(), 10_000, seed=seed)
            if abs(summary.avg_col_payoff) <= 0.05:
                inside += 1
        assert inside >= 19

    def test_exploiter_average_stays_in_the_clt_band(self):
        g = build_matching_pennies()
        rounds = 10_000
        band = 3.0 / np.sqrt(rounds)
        inside = 0
        for seed in range(10):
            _, summary = run_repeated(g, mixed(0.5, 0.5), FrequencyExploiter(), rounds, seed=seed)
            if abs(summary.avg_col_payoff - 0.0) <= band:
                inside += 1
        assert inside >= 9


class TestExploitabilityReport:
    def test_pure_policy_gap_is_about_one(self):
        report = exploitability_report(build_matching_pennies(), PurePolicy(0), 1000, seed=5)
        assert report.game_value == 0.0
        assert report.payoff_gap == pytest.approx(1.0, abs=0.05)

    def test_equilibrium_gap_is_about_zero(self):
        report = exploitability_report(build_matching_pennies(), mixed(0.5, 0.5), 10_000, seed=5)
        assert abs(report.payoff_gap) <= 0.05

    def test_harm_game_equilibrium_concedes_only_the_value(self):
        g = build_harm_game(HarmScenario(1.0, 2.0, 1.0, 6.0))
        report = exploitability_report(g, mixed(0.75, 0.25), 10_000, seed=5)
        assert report.game_value == -1.5
        assert report.exploiter_avg_payoff == pytest.approx(1.5, abs=0.1)
        assert abs(report.payoff_gap) <= 0.1

    def test_games_of_any_size_report_their_value(self):
        # a circulant game: uniform play is optimal for both sides, so the value is the row mean
        g = zero_sum_game([np.roll([0.0, -1.0, 2.0, -3.0, 1.0, 4.0], k) for k in range(6)])
        report = exploitability_report(g, PurePolicy(0), 200, seed=1)
        assert report.game_value == game_value(g) == 0.5

    def test_policy_frequencies_are_reported(self):
        report = exploitability_report(build_matching_pennies(), PurePolicy(1), 200, seed=1)
        assert np.array_equal(report.policy_frequencies, [0.0, 1.0])


class TestValidation:
    def test_pure_action_out_of_range(self):
        with pytest.raises(InputError):
            run_repeated(build_matching_pennies(), PurePolicy(2), PurePolicy(0), 10, seed=0)

    def test_pure_action_must_be_an_integer(self):
        with pytest.raises(InputError, match=r"row pure action 1\.5 is not an integer"):
            run_repeated(build_matching_pennies(), PurePolicy(1.5), PurePolicy(0), 3, seed=0)
        trace, _ = run_repeated(build_matching_pennies(), PurePolicy(np.int64(1)), PurePolicy(0), 3, seed=0)
        assert trace.row_actions.tolist() == [1, 1, 1]

    def test_mixed_strategy_length_mismatch(self):
        with pytest.raises(InputError):
            run_repeated(build_rock_paper_scissors(), mixed(0.5, 0.5), PurePolicy(0), 10, seed=0)

    def test_rounds_must_be_positive(self):
        with pytest.raises(InputError):
            run_repeated(build_matching_pennies(), PurePolicy(0), PurePolicy(0), 0, seed=0)
