"""Acceptance gate: one test per release criterion, tolerances pinned.

Every statistical bound is a 3-sigma band at the stated sample size with a
fixed seed, so the whole module is deterministic. Each criterion prints one
PASS line when its assertions hold (visible with ``pytest -s`` or ``-v``).
"""

import math
import time

import numpy as np

from randrule import (
    CostMatrix,
    FrequencyExploiter,
    HarmScenario,
    MixedPolicy,
    MixedStrategy,
    PurePolicy,
    SurveyDataset,
    SurveyRecord,
    bayes_classifier,
    bayes_risk,
    brute_force_u,
    build_harm_game,
    build_matching_pennies,
    build_rock_paper_scissors,
    compare_groups,
    constant_classifier,
    fictitious_play,
    find_pure_nash,
    gaussian_mixture,
    is_nash,
    load_survey_csv,
    mann_whitney_u,
    monte_carlo_cost,
    nearest_mean_classifier,
    overlap_deterministic,
    randomized_bayes_classifier,
    render_diverging_chart,
    run_repeated,
    run_report,
    sample_case_arrays,
    solve_zero_sum,
    two_class_likelihood_rule,
    uniform_overlap_mixture,
)

ZERO_ONE = CostMatrix.zero_one(2)
N_BIG = 10**6


def _passed(number, message):
    print(f"ACCEPTANCE {number:02d} PASS: {message}")


def _three_sigma(p, n):
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def test_criterion_1_overlap_rules_match_the_analytic_cost():
    start = time.monotonic()
    mixture = uniform_overlap_mixture(0.5, 1.0)
    md = monte_carlo_cost(mixture, ZERO_ONE, overlap_deterministic(0.5, 1.0), N_BIG, seed=42)
    mr = monte_carlo_cost(mixture, ZERO_ONE, randomized_bayes_classifier(mixture, ZERO_ONE), N_BIG, seed=42)
    tol = _three_sigma(0.25, N_BIG)
    assert tol <= 0.0013
    assert abs(md.mean_cost - 0.25) <= 0.0013
    assert abs(mr.mean_cost - 0.25) <= 0.0013
    assert abs(md.mean_cost - mr.mean_cost) <= 0.002

    for a in np.arange(0.1, 0.95, 0.1):
        a = round(float(a), 1)
        m = uniform_overlap_mixture(a, 1.0)
        exact = bayes_risk(m, ZERO_ONE)
        band = _three_sigma(exact, N_BIG)
        est_d = monte_carlo_cost(m, ZERO_ONE, overlap_deterministic(a, 1.0), N_BIG, seed=42)
        est_r = monte_carlo_cost(m, ZERO_ONE, randomized_bayes_classifier(m, ZERO_ONE), N_BIG, seed=42)
        assert abs(est_d.mean_cost - exact) <= band, f"deterministic rule off at a={a}"
        assert abs(est_r.mean_cost - exact) <= band, f"randomized rule off at a={a}"
        assert abs(est_d.mean_cost - est_r.mean_cost) <= 3.0 * math.sqrt(2.0) * math.sqrt(
            exact * (1.0 - exact) / N_BIG
        )
    elapsed = time.monotonic() - start
    assert elapsed <= 10.0
    _passed(1, f"M_d and M_r both hit 0.25 within 0.0013 at n=1e6; sweep a=0.1..0.9 in 3-sigma bands; {elapsed:.1f}s total")


def test_criterion_2_constant_classifier_errs_half_the_time():
    mixture = uniform_overlap_mixture(0.5, 1.0)
    est = monte_carlo_cost(mixture, ZERO_ONE, constant_classifier(0, 2), N_BIG, seed=7)
    assert abs(est.mean_cost - 0.5) <= 0.0015
    _passed(2, f"ignore-the-evidence baseline cost {est.mean_cost:.4f} within 0.5 +- 0.0015")


def test_criterion_3_harm_game_equilibrium_is_exact():
    game = build_harm_game(HarmScenario(1.0, 2.0, 1.0, 6.0))
    solution = solve_zero_sum(game)
    assert solution.profile.row.probs[0] == 0.75
    assert solution.profile.row.probs[1] == 0.25
    assert is_nash(game, solution.profile, 1e-9)
    env_payoffs = solution.profile.row.probs @ game.col_payoff
    assert abs(env_payoffs[0] - env_payoffs[1]) <= 1e-12
    assert abs(env_payoffs[0] - 1.5) <= 1e-12
    _passed(3, "harm game mixes (0.75, 0.25) exactly; equilibrium and indifference verified at 1e-12")


def test_criterion_4_no_pure_equilibria_in_the_dilemma_games():
    assert find_pure_nash(build_matching_pennies()) == []
    rng = np.random.Generator(np.random.PCG64(404))
    for _ in range(100):
        m_x, m_y = rng.uniform(0.01, 4.0, size=2)
        v_x, v_y = rng.uniform(0.1, 10.0, size=2)
        game = build_harm_game(HarmScenario(m_x, v_x, m_y, v_y))
        assert find_pure_nash(game) == []
    _passed(4, "matching pennies and 100 random harm games have no pure equilibrium")


def test_criterion_5_fictitious_play_finds_the_rps_mix():
    start = time.monotonic()
    result = fictitious_play(build_rock_paper_scissors(), 100_000, tie_seed=5)
    elapsed = time.monotonic() - start
    assert np.all(np.abs(result.profile.row.probs - 1.0 / 3.0) <= 0.05)
    assert np.all(np.abs(result.profile.col.probs - 1.0 / 3.0) <= 0.05)
    assert abs(result.value_estimate) <= 0.01
    assert elapsed <= 5.0
    _passed(5, f"RPS frequencies within 1/3 +- 0.05 and value {result.value_estimate:+.4f} within 0.01 in {elapsed:.1f}s")


def test_criterion_6_pure_play_is_exploited_and_mixing_is_not():
    game = build_matching_pennies()
    _, summary = run_repeated(game, PurePolicy(0), FrequencyExploiter(), 1000, seed=0)
    assert summary.avg_col_payoff >= 0.95
    fair = MixedPolicy(MixedStrategy(np.array([0.5, 0.5])))
    inside = 0
    for seed in range(20):
        _, s = run_repeated(game, fair, FrequencyExploiter(), 10_000, seed=seed)
        if abs(s.avg_col_payoff) <= 0.05:
            inside += 1
    assert inside >= 19
    _passed(6, f"pure heads concedes {summary.avg_col_payoff:.3f}/round; fair mixing stays within 0.05 for {inside}/20 seeds")


def test_criterion_7_rank_statistic_equals_the_pair_counting_oracle():
    rng = np.random.Generator(np.random.PCG64(777))
    for _ in range(1000):
        n = int(rng.integers(2, 30))
        m = int(rng.integers(2, 30))
        x = rng.integers(1, 6, size=n)
        y = rng.integers(1, 6, size=m)
        result = mann_whitney_u(x, y)
        assert (result.u_x, result.u_y) == brute_force_u(x, y)
        assert result.u_x + result.u_y == n * m
    _passed(7, "midrank U equals brute-force pair counting on 1000 random tied Likert pairs")


def test_criterion_8_the_classifier_constructions_agree_with_bayes():
    from randrule import ClassComponent, IsotropicGaussian, Mixture

    m = Mixture(
        [
            ClassComponent(0.65, IsotropicGaussian([0.0], 0.8)),
            ClassComponent(0.35, IsotropicGaussian([1.4], 0.8)),
        ]
    )
    cost = CostMatrix([[0.0, 1.3], [0.6, 0.0]])
    rule = two_class_likelihood_rule(m, cost)
    bayes = bayes_classifier(m, cost)
    X = np.linspace(-3.5, 4.5, 10_000).reshape(-1, 1)
    assert np.array_equal(rule.decide_batch(X), bayes.decide_batch(X))

    means = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.8]])
    gm = gaussian_mixture(means, lam=0.7)
    nearest = nearest_mean_classifier(gm)
    gm_bayes = bayes_classifier(gm, CostMatrix.zero_one(3))
    grid = np.linspace(-1.0, 3.0, 100)
    XY = np.array([[x, y] for x in grid for y in grid])
    d2 = np.sort(((XY[:, None, :] - means[None, :, :]) ** 2).sum(axis=2), axis=1)
    off_ties = d2[:, 1] - d2[:, 0] > 1e-9
    assert np.array_equal(nearest.decide_batch(XY)[off_ties], gm_bayes.decide_batch(XY)[off_ties])
    _passed(8, "likelihood rule matches Bayes on 10^4 grid points; nearest-mean matches off tie boundaries")


def test_criterion_9_survey_pipeline_substitutes_for_the_unpublished_data(tmp_path):
    # the original response data is not public, so the pipeline is verified
    # on synthetic data with known structure plus format compatibility
    def dataset_with_shift(shift):
        rng = np.random.Generator(np.random.PCG64(9))
        a = np.clip(rng.integers(1, 4, size=40), 1, 5)
        b = np.clip(a[:40] + shift, 1, 5)
        records = [SurveyRecord(f"a{i}", "teachers", "q1", int(v)) for i, v in enumerate(a)]
        records += [SurveyRecord(f"b{i}", "academics", "q1", int(v)) for i, v in enumerate(b)]
        return SurveyDataset(tuple(records), category_count=5)

    previous = None
    for shift in (0, 1, 2):
        comp = compare_groups(dataset_with_shift(shift), "q1", "teachers", "academics")
        if previous is not None:
            assert comp.result.p_two_sided <= previous + 1e-12
        previous = comp.result.p_two_sided
    null = compare_groups(dataset_with_shift(0), "q1", "teachers", "academics")
    assert null.result.p_two_sided == 1.0
    assert not null.significant
    separated = compare_groups(dataset_with_shift(2), "q1", "teachers", "academics")
    assert separated.significant

    # the documented CSV format accepts data shaped like the original study
    lines = ["respondent_id,group,question,response"]
    groups = [("teachers", 53), ("online", 124), ("visitors", 17), ("academics", 13)]
    rng = np.random.Generator(np.random.PCG64(29))
    for group, size in groups:
        for i in range(size):
            lines.append(f"{group}-{i},{group},q1,{int(rng.integers(1, 6))}")
    path = tmp_path / "study_format.csv"
    path.write_text("\n".join(lines) + "\n")
    ds = load_survey_csv(path)
    assert ds.groups() == ["teachers", "online", "visitors", "academics"]
    comp = compare_groups(ds, "q1", "teachers", "academics")
    assert 0.0 <= comp.result.p_two_sided <= 1.0
    _passed(9, "synthetic separations behave monotonically and the CSV format accepts study-shaped data")


def test_criterion_10_every_seeded_operation_is_bit_reproducible(tmp_path):
    mixture = uniform_overlap_mixture(0.5, 1.0)
    X_a, labels_a = sample_case_arrays(mixture, 1000, seed=11)
    X_b, labels_b = sample_case_arrays(mixture, 1000, seed=11)
    assert X_a.tobytes() == X_b.tobytes()
    assert labels_a.tobytes() == labels_b.tobytes()

    mr = randomized_bayes_classifier(mixture, ZERO_ONE)
    assert monte_carlo_cost(mixture, ZERO_ONE, mr, 50_000, seed=13) == monte_carlo_cost(
        mixture, ZERO_ONE, mr, 50_000, seed=13
    )

    fp_a = fictitious_play(build_rock_paper_scissors(), 5000, tie_seed=3)
    fp_b = fictitious_play(build_rock_paper_scissors(), 5000, tie_seed=3)
    assert np.array_equal(fp_a.profile.row.probs, fp_b.profile.row.probs)
    assert fp_a.value_estimate == fp_b.value_estimate

    game = build_matching_pennies()
    fair = MixedPolicy(MixedStrategy(np.array([0.5, 0.5])))
    trace_a, _ = run_repeated(game, fair, FrequencyExploiter(), 2000, seed=21)
    trace_b, _ = run_repeated(game, fair, FrequencyExploiter(), 2000, seed=21)
    assert np.array_equal(trace_a.row_actions, trace_b.row_actions)
    assert np.array_equal(trace_a.col_actions, trace_b.col_actions)

    records = tuple(
        SurveyRecord(f"r{g}{i}", f"g{g}", "q1", 1 + (i + g) % 5) for g in (1, 2) for i in range(12)
    )
    ds = SurveyDataset(records, category_count=5)
    chart = ("q1", ("g1", "g2"), [np.bincount(ds.responses("q1", g), minlength=6)[1:] for g in ("g1", "g2")],
             ("a", "b", "c", "d", "e"), 2)
    assert render_diverging_chart(*chart) == render_diverging_chart(*chart)

    run_report(ds, out_dir=tmp_path / "one")
    run_report(ds, out_dir=tmp_path / "two")
    for name in ("comparisons.csv", "q1.svg"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
    _passed(10, "sampling, Monte Carlo, fictitious play, repeated matches, and report files reproduce byte-identically")
