"""Every documented refusal raises its own exception with a message that names the bad input."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from randrule import (
    CostMatrix,
    DeterministicClassifier,
    InputError,
    IsotropicGaussian,
    MixedStrategy,
    NormalFormGame,
    OrdinalSample,
    PurePolicy,
    RandomizedClassifier,
    SurveyDataset,
    SurveyRecord,
    UniformInterval,
    build_rock_paper_scissors,
    constant_classifier,
    gaussian_mixture,
    monte_carlo_cost,
    overlap_deterministic,
    posterior_matrix,
    run_repeated,
    run_report,
    uniform_overlap_mixture,
)
from randrule.cli import build_parser
from randrule.rng import box_muller, inverse_cdf

ROOT = Path(__file__).resolve().parents[1]
RECORDS = [SurveyRecord("r1", "g1", "q1", 3), SurveyRecord("r2", "g2", "q1", 4)]


def command(*argv):
    """Run one CLI subcommand without ``main``'s exit-code wrapper, so its ``InputError`` propagates."""
    args = build_parser().parse_args(list(argv))
    return args.func(args)


def rule_returning(output, randomized=False):
    kind = RandomizedClassifier if randomized else DeterministicClassifier
    return kind(2, lambda X: output(len(X)), name="user")


REFUSALS = {
    "mwu-x": (lambda: command("mwu", "--x", "a,b", "--y", "1"), InputError, "--x expects comma-separated numbers, got 'a,b'"),
    "report-no-group": (lambda: run_report(SurveyDataset(RECORDS), groups=[]), InputError, "report needs at least one group"),
    "dataset-empty": (lambda: SurveyDataset([]), InputError, "no records: the dataset is empty"),
    "dataset-one-category": (lambda: SurveyDataset(RECORDS, category_count=1), InputError, "category count must be >= 2, got 1"),
    "labels-shape": (lambda: rule_returning(lambda n: np.zeros((n, 2), dtype=int)).decide_batch(np.zeros((3, 1))),
                     InputError, "classifier 'user' returned labels of shape (3, 2)"),
    "distributions-shape": (lambda: rule_returning(lambda n: np.full((n, 3), 1 / 3), True).distributions(np.zeros((3, 1))),
                            InputError, "classifier 'user' returned shape (3, 3)"),
    "distributions-sum": (lambda: rule_returning(lambda n: np.full((n, 2), 0.7), True).distributions(np.zeros((3, 1))),
                          InputError, "classifier 'user' returned an invalid distribution"),
    "distributions-negative": (lambda: rule_returning(lambda n: np.tile([1.5, -0.5], (n, 1)), True).distributions(np.zeros((3, 1))),
                               InputError, "classifier 'user' returned an invalid distribution"),
    "mc-no-cases": (lambda: monte_carlo_cost(uniform_overlap_mixture(0.5, 1.0), CostMatrix.zero_one(2), constant_classifier(0, 2), 0, 1),
                    InputError, "sample size must be >= 1, got 0"),
    "constant-label": (lambda: constant_classifier(2, 2), InputError, "label 2 out of range for 2 classes"),
    "overlap-rule-shift": (lambda: overlap_deterministic(-1, 1), InputError, "overlap rules need a >= 0 and b > 0, got a=-1, b=1"),
    "pure-action": (lambda: MixedStrategy.pure(3, 3), InputError, "action 3 out of range for 3 actions"),
    "empty-strategy": (lambda: MixedStrategy([]), InputError, "a mixed strategy is a non-empty probability vector"),
    "payoff-shapes": (lambda: NormalFormGame(np.zeros((2, 2)), np.zeros((2, 3))), InputError, "payoff shapes differ: (2, 2) vs (2, 3)"),
    "interval-nan": (lambda: UniformInterval(float("nan"), 1.0), InputError, "interval endpoints must be finite"),
    "gaussian-nan": (lambda: IsotropicGaussian([float("nan")], 1.0), InputError, "gaussian mean must be a finite vector"),
    "overlap-mixture-shift": (lambda: uniform_overlap_mixture(-1, 1), InputError, "overlap mixture needs a >= 0 and b > 0"),
    "prior-count": (lambda: gaussian_mixture([[0.0], [1.0]], 1.0, priors=[1.0]), InputError, "got 1 priors for 2 means"),
    "evidence-shape": (lambda: posterior_matrix(gaussian_mixture([[0.0], [1.0]], 1.0), np.zeros((2, 2))),
                       InputError, "expected an (n, 1) evidence array"),
    "sample-nan": (lambda: OrdinalSample([float("nan")]), InputError, "sample values must be finite"),
    "sample-no-category": (lambda: OrdinalSample([1], category_count=0), InputError, "category count must be >= 1, got 0"),
    "policy-type": (lambda: run_repeated(build_rock_paper_scissors(), PurePolicy(0), "rock", 10, 1),
                    InputError, "unknown policy type str"),
    "box-muller-shape": (lambda: box_muller(np.zeros((2, 3))), ValueError, "box_muller expects an (n, 2c) array of uniforms"),
    "inverse-cdf-shape": (lambda: inverse_cdf(np.full((2, 2), 0.5), np.zeros(3)), ValueError,
                          "inverse_cdf expects (k,) or (n, k) probabilities for n uniforms"),
}


@pytest.mark.parametrize("call, exception, fragment", REFUSALS.values(), ids=REFUSALS.keys())
def test_each_refusal_names_what_it_refuses(call, exception, fragment):
    with pytest.raises(exception, match=re.escape(fragment)):
        call()


def test_the_package_runs_as_a_module():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-m", "randrule", "solve-game", "--game", "rps"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert re.search(r"^row +0\.333333 0\.333333 0\.333333$", child.stdout, re.MULTILINE), child.stdout
