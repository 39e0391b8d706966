"""Why a decision-maker forced to pick a victim should roll weighted dice.

A machine must harm one of two parties, X or Y, without knowing who is at
fault; the environment adversarially chooses the party at fault. Harming
the culprit costs nothing, harming an innocent costs their merit times
their worth. The resulting 2x2 zero-sum game has no pure equilibrium: any
fixed choice can be anticipated and punished. The unique equilibrium mixes
with probabilities proportional to the harm the *other* side represents.
"""

from randrule import (
    HarmScenario,
    MixedProfile,
    MixedStrategy,
    build_harm_game,
    build_matching_pennies,
    expected_payoff,
    find_pure_nash,
    is_nash,
    solve_zero_sum,
)


def describe(name, scenario):
    game = build_harm_game(scenario)
    solution = solve_zero_sum(game)
    p_x, p_y = solution.profile.row.probs
    print(f"\n{name}")
    print(f"  payoffs if wrong: harm X costs {scenario.m_x * scenario.v_x:g}, harm Y costs {scenario.m_y * scenario.v_y:g}")
    print(f"  pure equilibria: {find_pure_nash(game) or 'none'}")
    print(f"  equilibrium mix: harm X with p={p_x:.4g}, harm Y with p={p_y:.4g}")
    print(f"  expected cost at equilibrium: {solution.value:g}")
    print(f"  verified Nash at 1e-9: {is_nash(game, solution.profile, 1e-9)}")


def main():
    print("=" * 72)
    print("Mixed strategies for harm dilemmas")
    print("=" * 72)

    print("\nWarm-up: matching pennies, the canonical no-pure-equilibrium game")
    mp = build_matching_pennies()
    print(f"  pure equilibria: {find_pure_nash(mp) or 'none'}")
    solution = solve_zero_sum(mp)
    mix = ", ".join(f"{p:g}" for p in solution.profile.row.probs)
    print(f"  equilibrium: both mix ({mix}) for value {solution.value:g}")
    naive = MixedProfile(MixedStrategy.pure(0, 2), MixedStrategy.pure(1, 2))
    print(f"  a pure profile like heads-vs-tails pays {expected_payoff(mp, naive)} and is not stable")

    describe(
        "Scenario: two passengers (X) vs six pedestrians (Y), equal merit",
        HarmScenario(m_x=1.0, v_x=2.0, m_y=1.0, v_y=6.0),
    )
    print(
        "  Even though six lives outweigh two, the two passengers keep a"
        "\n  2/8 chance of being spared: equilibrium play shifts probability"
        "\n  toward sparing the costlier side, never all of it."
    )

    describe(
        "Scenario: equal stakes on both sides",
        HarmScenario(m_x=1.0, v_x=4.0, m_y=1.0, v_y=4.0),
    )
    describe(
        "Scenario: X blameless in the model (merit 0)",
        HarmScenario(m_x=0.0, v_x=2.0, m_y=1.0, v_y=6.0),
    )
    print("  With a zero product the dilemma collapses to a pure choice: the")
    print("  zero-cost side absorbs the harm and mixing is unnecessary.")

    print("\nEnvironment side of the equilibrium (the part with no closed form")
    print("in the dilemma's usual telling): the fault distribution makes the")
    print("decision-maker indifferent between its two actions.")
    game = build_harm_game(HarmScenario(1.0, 2.0, 1.0, 6.0))
    solution = solve_zero_sum(game)
    env = solution.profile.col.probs
    decision_payoffs = game.row_payoff @ env
    print(f"  environment mixes fault: X with {env[0]:.4g}, Y with {env[1]:.4g}")
    print(f"  decision-maker's payoffs against it: {decision_payoffs[0]:.6g} vs {decision_payoffs[1]:.6g}")


if __name__ == "__main__":
    main()
