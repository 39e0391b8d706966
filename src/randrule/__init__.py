"""randrule: randomized decision rules that are provably no worse than deterministic ones.

The library covers four connected pieces:

* known class mixtures with the Bayes rule and its randomized form, which
  spreads its mass over every minimum-cost decision and so matches the best
  deterministic rule exactly on any mixture and cost;
* two-player matrix games with one exact solver for every zero-sum game
  (matching pennies, rock-paper-scissors, the harm-allocation dilemma) and
  fictitious play as learning dynamics;
* repeated play showing how pure strategies get exploited by a frequency
  learner while equilibrium mixes do not; the learner runs the same
  best-response loop as fictitious play;
* ordinal survey statistics: Mann-Whitney U with tie handling, descriptive
  summaries, and diverging stacked bar charts.

Everything stochastic takes an explicit 64-bit seed and reproduces bit-for-bit.
"""

from .charts import DEFAULT_LIKERT_LABELS, diverging_palette, render_diverging_chart, render_grouped_chart
from .decisions import (
    Classifier,
    CostEstimate,
    CostMatrix,
    DeterministicClassifier,
    RandomizedClassifier,
    bayes_classifier,
    bayes_decide,
    bayes_risk,
    constant_classifier,
    expected_cost_of_classifier,
    expected_cost_of_decision,
    monte_carlo_cost,
    nearest_mean_classifier,
    overlap_deterministic,
    randomized_bayes_classifier,
    two_class_likelihood_rule,
)
from .errors import InputError, UnsupportedEvidenceError
from .games import (
    FictitiousPlayResult,
    HarmScenario,
    MixedProfile,
    MixedStrategy,
    NormalFormGame,
    ZeroSumSolution,
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
from .mixtures import (
    ClassComponent,
    Density,
    IsotropicGaussian,
    LabelId,
    Mixture,
    UniformInterval,
    density_at,
    gaussian_mixture,
    load_mixture,
    mixture_from_dict,
    posterior,
    posterior_matrix,
    sample_case_arrays,
    uniform_overlap_mixture,
)
from .ordinal import (
    DescriptiveSummary,
    MwuResult,
    OrdinalSample,
    brute_force_u,
    descriptive_summary,
    mann_whitney_u,
)
from .repeated import (
    AgentPolicy,
    ExploitabilityReport,
    FrequencyExploiter,
    MatchSummary,
    MatchTrace,
    MixedPolicy,
    PurePolicy,
    exploitability_report,
    run_repeated,
)
from .report import LOW_N_THRESHOLD, QuestionReport, ReportBundle, run_report
from .survey import (
    GroupComparison,
    SurveyDataset,
    SurveyRecord,
    compare_groups,
    load_survey_csv,
)

__version__ = "0.1.0"
