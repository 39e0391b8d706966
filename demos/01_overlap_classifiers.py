"""A coin-flipping classifier that is exactly as good as the best deterministic one.

Setting: two classes, equally likely, each uniform on an interval of length
b, the second interval shifted right by a. Outside the overlap the evidence
settles the class for free. Inside the overlap the posterior is (1/2, 1/2),
so any rule errs half the time there, and the whole game is about how much
probability mass the overlap carries.

This script evaluates the midpoint rule (deterministic) and the randomized
Bayes rule side by side: exact expected cost, then a seeded Monte Carlo
estimate of each at one million cases. The randomized Bayes rule spreads its
mass evenly over every minimum-cost label, which here is a fair coin on the
overlap and a certain answer off it.
"""

import numpy as np

from randrule import (
    CostMatrix,
    analytic_overlap_cost,
    constant_classifier,
    monte_carlo_cost,
    overlap_deterministic,
    posterior,
    randomized_bayes_classifier,
    uniform_overlap_mixture,
)

SEED = 42
N = 1_000_000
ZERO_ONE = CostMatrix.zero_one(2)


def main():
    print("=" * 72)
    print("Overlapping uniforms: where randomizing costs nothing")
    print("=" * 72)

    mixture = uniform_overlap_mixture(0.5, 1.0)
    print("\nPosterior class probabilities, a=0.5, b=1.0:")
    for x in (0.25, 0.75, 1.25):
        p = posterior(mixture, x)
        region = "overlap" if 0.5 <= x <= 1.0 else "certain"
        print(f"  x = {x:4.2f} ({region:7s}): P(class|x) = ({p[0]:.2f}, {p[1]:.2f})")

    print("\nBaseline: a constant rule that never looks at the evidence")
    const = monte_carlo_cost(mixture, ZERO_ONE, constant_classifier(0, 2), N, SEED)
    print(f"  error rate {const.mean_cost:.4f} (se {const.standard_error:.4f}) -- a fair coin on labels")

    print(f"\nMidpoint rule vs coin-flip rule, {N:,} cases per estimate, seed {SEED}:")
    header = f"  {'a':>4} {'analytic':>9} {'midpoint':>9} {'coin-flip':>10} {'difference':>11}"
    print(header)
    print("  " + "-" * (len(header) - 2))
    for a in np.arange(0.1, 1.0, 0.1):
        a = round(float(a), 1)
        m = uniform_overlap_mixture(a, 1.0)
        exact = analytic_overlap_cost(a, 1.0)
        md = monte_carlo_cost(m, ZERO_ONE, overlap_deterministic(a, 1.0), N, SEED)
        mr = monte_carlo_cost(m, ZERO_ONE, randomized_bayes_classifier(m, ZERO_ONE), N, SEED)
        print(
            f"  {a:4.1f} {exact:9.4f} {md.mean_cost:9.4f} {mr.mean_cost:10.4f}"
            f" {abs(md.mean_cost - mr.mean_cost):11.5f}"
        )

    print(
        "\nThe two rules track the analytic cost (b-a)/(2b) at every overlap"
        "\nwidth; their difference sits inside Monte Carlo noise. Randomizing"
        "\non uninformative evidence gives up nothing."
    )


if __name__ == "__main__":
    main()
