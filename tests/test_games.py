import json

import numpy as np
import pytest

from randrule import (
    HarmScenario,
    InputError,
    MixedProfile,
    MixedStrategy,
    NormalFormGame,
    build_harm_game,
    build_matching_pennies,
    build_rock_paper_scissors,
    expected_payoff,
    fictitious_play,
    find_pure_nash,
    game_from_dict,
    game_value,
    is_nash,
    load_game,
    solve_zero_sum,
    zero_sum_game,
)


def nash_by_deviation(game):
    """Second, independently coded enumerator: try every unilateral deviation."""
    out = []
    rows, cols = game.row_actions, game.col_actions
    for i in range(rows):
        for j in range(cols):
            if any(game.row_payoff[i2, j] > game.row_payoff[i, j] for i2 in range(rows)):
                continue
            if any(game.col_payoff[i, j2] > game.col_payoff[i, j] for j2 in range(cols)):
                continue
            out.append((i, j))
    return out


class TestBuilders:
    def test_matching_pennies_payoffs(self):
        g = build_matching_pennies()
        assert g.row_payoff[0, 0] == 1.0
        assert g.row_payoff[0, 1] == -1.0
        assert g.zero_sum

    def test_rock_paper_scissors_cycle(self):
        g = build_rock_paper_scissors()
        rock, paper, scissors = 0, 1, 2
        assert g.row_payoff[rock, scissors] == 1.0
        assert g.row_payoff[paper, paper] == 0.0
        assert np.array_equal(g.row_payoff, -g.row_payoff.T)

    def test_harm_game_matrix(self):
        g = build_harm_game(HarmScenario(1.0, 2.0, 1.0, 6.0))
        assert np.array_equal(g.row_payoff, [[0.0, -2.0], [-6.0, 0.0]])
        assert g.row_payoff[0, 0] == 0.0  # harming the party at fault is free
        assert np.array_equal(g.col_payoff, -g.row_payoff)

    def test_scenario_validation(self):
        with pytest.raises(InputError):
            HarmScenario(-1.0, 1.0, 1.0, 1.0)
        with pytest.raises(InputError):
            HarmScenario(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(InputError):
            HarmScenario(0.0, 1.0, 0.0, 1.0)

    def test_zero_sum_is_read_off_the_payoffs(self):
        a = np.array([[3.0, 0.0], [1.0, 2.0]])
        assert not NormalFormGame([[1.0]], [[1.0]]).zero_sum
        game = NormalFormGame(a, -a)  # built without zero_sum_game
        assert game.zero_sum
        assert solve_zero_sum(game).value == pytest.approx(1.5, abs=1e-15)
        played = fictitious_play(game, 2000)
        assert played.value_estimate == pytest.approx(1.5, abs=0.05)
        assert is_nash(game, played.profile, 0.05)


class TestMixedStrategy:
    def test_validation(self):
        with pytest.raises(InputError):
            MixedStrategy(np.array([0.6, 0.6]))
        with pytest.raises(InputError):
            MixedStrategy(np.array([-0.1, 1.1]))
        with pytest.raises(InputError):
            MixedStrategy(np.array([np.nan, np.nan]))

    def test_constructors(self):
        assert np.array_equal(MixedStrategy.pure(1, 3).probs, [0.0, 1.0, 0.0])
        assert np.allclose(MixedStrategy.uniform(4).probs, 0.25)


class TestExpectedPayoff:
    def test_uniform_matching_pennies_is_even(self):
        g = build_matching_pennies()
        profile = MixedProfile(MixedStrategy.uniform(2), MixedStrategy.uniform(2))
        assert expected_payoff(g, profile) == (0.0, 0.0)

    def test_pure_lookup(self):
        g = build_matching_pennies()
        profile = MixedProfile(MixedStrategy.pure(0, 2), MixedStrategy.pure(0, 2))
        assert expected_payoff(g, profile) == (1.0, -1.0)

    def test_bilinear_mix(self):
        g = build_harm_game(HarmScenario(1.0, 2.0, 1.0, 6.0))
        profile = MixedProfile(
            MixedStrategy(np.array([0.75, 0.25])), MixedStrategy.uniform(2)
        )
        row, col = expected_payoff(g, profile)
        assert row == pytest.approx(-1.5, abs=1e-12)
        assert col == pytest.approx(1.5, abs=1e-12)

    def test_dimension_mismatch(self):
        g = build_matching_pennies()
        with pytest.raises(InputError):
            expected_payoff(g, MixedProfile(MixedStrategy.uniform(3), MixedStrategy.uniform(2)))


class TestPureNash:
    def test_matching_pennies_has_none(self):
        assert find_pure_nash(build_matching_pennies()) == []

    def test_saddle_point_found(self):
        g = zero_sum_game([[2.0, 1.0], [4.0, 3.0]])
        assert find_pure_nash(g) == [(1, 1)]
        assert g.row_payoff[1, 1] == 3.0

    def test_harm_game_has_none_for_positive_products(self):
        g = build_harm_game(HarmScenario(0.5, 3.0, 2.0, 1.0))
        assert find_pure_nash(g) == []

    def test_agrees_with_independent_enumerator_on_random_games(self):
        rng = np.random.Generator(np.random.PCG64(99))
        for _ in range(200):
            rows = int(rng.integers(2, 5))
            cols = int(rng.integers(2, 5))
            # integer payoffs make ties common, exercising the >= logic
            a = rng.integers(-3, 4, size=(rows, cols)).astype(float)
            b = rng.integers(-3, 4, size=(rows, cols)).astype(float)
            g = NormalFormGame(a, b)
            assert find_pure_nash(g) == nash_by_deviation(g)


class TestExactSolver:
    def test_harm_game_equilibrium_matches_closed_form(self):
        g = build_harm_game(HarmScenario(1.0, 2.0, 1.0, 6.0))
        sol = solve_zero_sum(g)
        assert np.array_equal(sol.profile.row.probs, [0.75, 0.25])
        assert sol.value == -1.5
        assert is_nash(g, sol.profile, 1e-9)

    def test_matching_pennies_mixes_evenly(self):
        sol = solve_zero_sum(build_matching_pennies())
        assert np.array_equal(sol.profile.row.probs, [0.5, 0.5])
        assert np.array_equal(sol.profile.col.probs, [0.5, 0.5])
        assert sol.value == 0.0

    def test_textbook_indifference_example(self):
        sol = solve_zero_sum(zero_sum_game([[3.0, 0.0], [1.0, 2.0]]))
        assert sol.profile.row.probs == pytest.approx([0.25, 0.75], abs=1e-15)
        assert sol.profile.col.probs == pytest.approx([0.5, 0.5], abs=1e-15)
        assert sol.value == pytest.approx(1.5, abs=1e-15)

    def test_saddle_returned_as_degenerate_profile(self):
        sol = solve_zero_sum(zero_sum_game([[2.0, 1.0], [4.0, 3.0]]))
        assert np.array_equal(sol.profile.row.probs, [0.0, 1.0])
        assert np.array_equal(sol.profile.col.probs, [0.0, 1.0])
        assert sol.value == 3.0

    def test_harm_row_mix_is_exactly_the_closed_form(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(100):
            m_x, m_y = rng.uniform(0.05, 5.0, size=2)
            v_x, v_y = rng.uniform(0.1, 10.0, size=2)
            sol = solve_zero_sum(build_harm_game(HarmScenario(m_x, v_x, m_y, v_y)))
            total = m_x * v_x + m_y * v_y
            assert sol.profile.row.probs[0] == (m_y * v_y) / total
            assert is_nash(build_harm_game(HarmScenario(m_x, v_x, m_y, v_y)), sol.profile, 1e-9)

    def test_degenerate_scenario_harms_the_blameless_free_side(self):
        # m_x v_x = 0: harming X never costs anything, a pure equilibrium
        g = build_harm_game(HarmScenario(0.0, 1.0, 2.0, 3.0))
        sol = solve_zero_sum(g)
        assert np.array_equal(sol.profile.row.probs, [1.0, 0.0])
        assert sol.value == 0.0

    def test_rejects_wrong_shapes(self):
        with pytest.raises(InputError, match="6x5"):
            solve_zero_sum(zero_sum_game(np.ones((6, 5))))
        with pytest.raises(InputError):
            solve_zero_sum(NormalFormGame([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]))

    def test_rock_paper_scissors_mixes_exactly_evenly(self):
        sol = solve_zero_sum(build_rock_paper_scissors())
        assert np.array_equal(sol.profile.row.probs, [1 / 3, 1 / 3, 1 / 3])
        assert np.array_equal(sol.profile.col.probs, [1 / 3, 1 / 3, 1 / 3])
        assert sol.value == 0.0

    def test_scaling_payoffs_scales_the_value_only(self):
        rng = np.random.Generator(np.random.PCG64(13))
        for _ in range(50):
            a = rng.uniform(-4, 4, size=(2, 2))
            factor = float(rng.uniform(0.1, 9.0))
            sol = solve_zero_sum(zero_sum_game(a))
            scaled = solve_zero_sum(zero_sum_game(a * factor))
            assert scaled.profile.row.probs == pytest.approx(sol.profile.row.probs, abs=1e-12)
            assert scaled.profile.col.probs == pytest.approx(sol.profile.col.probs, abs=1e-12)
            assert scaled.value == pytest.approx(sol.value * factor, rel=1e-9, abs=1e-12)

    def test_fully_mixed_equilibria_are_indifferent(self):
        rng = np.random.Generator(np.random.PCG64(21))
        seen_mixed = 0
        for _ in range(200):
            a = rng.uniform(-4, 4, size=(2, 2))
            g = zero_sum_game(a)
            sol = solve_zero_sum(g)
            if not sol.profile.row.is_fully_mixed():
                continue
            seen_mixed += 1
            row_purepay = g.row_payoff @ sol.profile.col.probs
            col_purepay = sol.profile.row.probs @ g.col_payoff
            assert abs(row_purepay[0] - row_purepay[1]) <= 1e-12 * max(1.0, abs(row_purepay[0]))
            assert abs(col_purepay[0] - col_purepay[1]) <= 1e-12 * max(1.0, abs(col_purepay[0]))
        assert seen_mixed > 20


class TestIsNash:
    def test_known_equilibrium_passes(self):
        g = build_matching_pennies()
        assert is_nash(g, MixedProfile(MixedStrategy.uniform(2), MixedStrategy.uniform(2)), 1e-9)

    def test_exploitable_pure_profile_fails(self):
        g = build_matching_pennies()
        profile = MixedProfile(MixedStrategy.pure(0, 2), MixedStrategy.pure(0, 2))
        assert not is_nash(g, profile, 1e-9)

    def test_environment_is_indifferent_at_the_harm_equilibrium(self):
        g = build_harm_game(HarmScenario(1.0, 2.0, 1.0, 6.0))
        sol = solve_zero_sum(g)
        env_payoffs = sol.profile.row.probs @ g.col_payoff
        assert abs(env_payoffs[0] - env_payoffs[1]) <= 1e-12
        assert env_payoffs[0] == pytest.approx(2.0 * 6.0 / 8.0, abs=1e-12)

    def test_support_indifference_rejects_unbalanced_full_mixes(self):
        g = zero_sum_game([[2.0, 1.0], [4.0, 3.0]])  # saddle at (1, 1)
        profile = MixedProfile(MixedStrategy.uniform(2), MixedStrategy.uniform(2))
        assert not is_nash(g, profile, 1e-9)

    def test_tolerance_must_be_positive(self):
        g = build_matching_pennies()
        with pytest.raises(InputError):
            is_nash(g, MixedProfile(MixedStrategy.uniform(2), MixedStrategy.uniform(2)), 0.0)
        with pytest.raises(InputError):
            is_nash(g, MixedProfile(MixedStrategy.pure(0, 2), MixedStrategy.pure(1, 2)), float("nan"))


class TestFictitiousPlay:
    def test_rock_paper_scissors_approaches_the_even_mix(self):
        result = fictitious_play(build_rock_paper_scissors(), 100_000, tie_seed=5)
        assert np.all(np.abs(result.profile.row.probs - 1.0 / 3.0) <= 0.05)
        assert np.all(np.abs(result.profile.col.probs - 1.0 / 3.0) <= 0.05)
        assert abs(result.value_estimate) <= 0.01

    def test_matching_pennies_value(self):
        result = fictitious_play(build_matching_pennies(), 100_000, tie_seed=8)
        assert abs(result.value_estimate) <= 0.01

    def test_value_matches_the_exact_solver(self):
        game = zero_sum_game([[3.0, 0.0], [1.0, 2.0]])
        result = fictitious_play(game, 100_000, tie_seed=3)
        assert abs(result.value_estimate - 1.5) <= 0.02

    def test_rejects_general_sum_games(self):
        g = NormalFormGame([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InputError):
            fictitious_play(g, 100)

    def test_rejects_zero_iterations(self):
        with pytest.raises(InputError):
            fictitious_play(build_matching_pennies(), 0)

    def test_fixed_tie_seed_reproduces(self):
        a = fictitious_play(build_rock_paper_scissors(), 2_000, tie_seed=1)
        b = fictitious_play(build_rock_paper_scissors(), 2_000, tie_seed=1)
        assert np.array_equal(a.profile.row.probs, b.profile.row.probs)
        assert a.value_estimate == b.value_estimate

    @pytest.mark.parametrize("game", [build_rock_paper_scissors(), build_matching_pennies(),
                                      zero_sum_game([[3.0, 0.0], [1.0, 2.0]]),
                                      zero_sum_game([[0.5, -1.25], [-0.75, 2.0]])],
                             ids=["rps", "mp", "integer-2x2", "fractional-2x2"])
    def test_duality_gap_is_the_profiles_best_response_spread(self, game):
        result = fictitious_play(game, 3_000, tie_seed=2)
        x, y = result.profile.row.probs, result.profile.col.probs
        A = game.row_payoff
        assert result.duality_gap >= 0.0
        assert result.duality_gap == float((A @ y).max() - (x @ A).min())

    def test_duality_gap_shrinks_with_iterations_on_rps(self):
        rps = build_rock_paper_scissors()
        short, long = (fictitious_play(rps, n, tie_seed=5).duality_gap for n in (1_000, 100_000))
        assert long < short


class TestGameValue:
    def test_exact_for_2x2(self):
        assert game_value(zero_sum_game([[3.0, 0.0], [1.0, 2.0]])) == pytest.approx(1.5, abs=1e-15)

    def test_zero_for_antisymmetric(self):
        assert game_value(build_rock_paper_scissors()) == 0.0

    def test_larger_games_are_exact(self):
        # 3x3 with a saddle at (0, 0): maximin = minimax = 1
        g = zero_sum_game([[1.0, 2.0, 3.0], [0.0, 5.0, 1.0], [-1.0, 0.0, 2.0]])
        assert game_value(g) == 1.0

    def test_rejects_general_sum(self):
        g = NormalFormGame([[1.0]], [[2.0]])
        with pytest.raises(InputError):
            game_value(g)


class TestGameJson:
    def test_zero_sum_document(self):
        g = game_from_dict({"row_payoff": [[1, -1], [-1, 1]], "zero_sum": True})
        assert g.zero_sum
        assert np.array_equal(g.col_payoff, -g.row_payoff)

    def test_two_matrix_document(self):
        g = game_from_dict({"row_payoff": [[1, 0]], "col_payoff": [[0, 1]]})
        assert not g.zero_sum

    def test_inconsistent_declaration_rejected(self):
        with pytest.raises(InputError):
            game_from_dict({"row_payoff": [[1]], "col_payoff": [[1]], "zero_sum": True})

    def test_missing_matrices_rejected(self):
        with pytest.raises(InputError):
            game_from_dict({"row_payoff": [[1]]})
        with pytest.raises(InputError):
            game_from_dict({})

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps({"row_payoff": [[1, -1], [-1, 1]], "zero_sum": True}))
        g = load_game(path)
        assert g.zero_sum
