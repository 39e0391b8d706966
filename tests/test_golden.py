"""Golden digests of seeded outputs, pinned across versions.

Every value here was computed once and written down; a change to any of
them means the program's output bytes changed. Re-pin a digest only when
the output is meant to change, and say which one and why in the change log.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from randrule import (
    CostMatrix,
    MixedPolicy,
    MixedStrategy,
    PurePolicy,
    SurveyDataset,
    SurveyRecord,
    bayes_classifier,
    build_rock_paper_scissors,
    exploitability_report,
    fictitious_play,
    gaussian_mixture,
    load_survey_csv,
    mann_whitney_u,
    monte_carlo_cost,
    nearest_mean_classifier,
    overlap_deterministic,
    randomized_bayes_classifier,
    run_report,
    sample_case_arrays,
    uniform_overlap_mixture,
    zero_sum_game,
)
from randrule import survey
from randrule.cli import main
from test_survey import loaded

GOLDEN_REPORT = {
    "comparisons.csv": "88adcb608255b56ccd442566f2efc8666e381ca9038296f765d3afcc724d0151",
    "q1.svg": "651ee9977006f6121df789aca960feea1476af47441928b219bbfc75c78b3d4d",
    "q2.svg": "9b885ed36d1584b7078c4ff2588e123382f6e1c0e7432951572ba0f006bf3872",
    "q3.svg": "4ae7b6251a3500dbda12894ee0132ea603ba839fe4792491aa43eebd5817acff",
    "q4.svg": "c28edb9bbc5ebe555c09bf0f8e279ffba728c6f8e894515288129fc273f1cc1c",
}

_rng = np.random.Generator(np.random.PCG64(404))

# (x, y) -> float.hex of (u_x, z, p_two_sided)
GOLDEN_MWU = [
    (([1, 2, 2, 3, 3, 3], [2, 3, 3, 4, 5]), ("0x1.c000000000000p+2", "-0x1.736275fbbe25ap+0", "0x1.2cc3a365f60fap-3")),
    (([5, 5, 4, 4, 1], [1, 1, 2, 5, 5, 5, 3]), ("0x1.4000000000000p+4", "0x1.5c28b4f0705b0p-2", "0x1.77bc235f1e17ep-1")),
    (([1, 2], [2, 3]), ("0x1.0000000000000p-1", "-0x1.a20bd700c2c3fp-1", "0x1.a828492c1a5ebp-2")),
    (([2, 2, 2, 2, 3], [2, 2, 3, 3, 3, 3]), ("0x1.0000000000000p+3", "-0x1.5ecd4ffce4f25p+0", "0x1.5d5cae8e7659bp-3")),
    ((_rng.integers(1, 6, size=40), _rng.integers(2, 6, size=31)), ("0x1.aa80000000000p+8", "-0x1.272898b5022a8p+1", "0x1.59f1a89829d7bp-6")),
]

GOLDEN_CASES = "829a077f07b2d9e3046bb9145e3b06a4cb2df994a0e8e426d60a4f2f23b568f3"

# float.hex of monte_carlo_cost (mean, standard error), n=1e5, seed 42; the
# coin-flip pin was taken from the three-branch overlap rule that the
# randomized Bayes rule replaced, and holds for both
GOLDEN_MC = {
    "midpoint": ("0x1.fe32a0663c750p-3", "0x1.6688fb44a3baep-10"),
    "coin-flip": ("0x1.0060fe47991bcp-2", "0x1.6722586056d95p-10"),
    "bayes": ("0x1.b1f0c34c1a8acp-2", "0x1.2e55aae99b097p-9"),
    "nearest-mean": ("0x1.273d5bab21816p-2", "0x1.7782a34abac73p-10"),
}
GAUSS_MEANS = [[0.0, 0.0], [1.5, 0.5], [-0.5, 1.2]]


def golden_survey() -> SurveyDataset:
    """Three unequal groups met in shuffled order, four questions, about 12% missing."""
    rng = np.random.Generator(np.random.PCG64(20211115))
    groups = ("teachers", "online", "visitors")
    group_of = rng.permutation(np.repeat(np.arange(3), (23, 14, 6)))
    records = []
    for r, g in enumerate(group_of):
        for j, question in enumerate(("q1", "q2", "q3", "q4")):
            code = int(np.clip(rng.integers(1, 6) + (g == j % 3) - (g == 2 and j == 1), 1, 5))
            response = None if rng.random() < 0.12 else code
            records.append(SurveyRecord(f"r{r:02d}", groups[g], question, response))
    return SurveyDataset(tuple(records), category_count=5)


def golden_survey_csv() -> str:
    """``golden_survey()`` as survey CSV text, in record order."""
    rows = ["respondent_id,group,question,response"]
    rows += [f"{r.respondent_id},{r.group},{r.question},{'' if r.response is None else r.response}"
             for r in golden_survey().records]
    return "\n".join(rows) + "\n"


# golden_survey_csv() as a committed file, which CI also reads with the installed console script
GOLDEN_SURVEY_FILE = Path(__file__).resolve().parent / "data" / "golden_survey.csv"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def assert_golden_report(out_dir):
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(GOLDEN_REPORT)
    got = {name: _sha256((out_dir / name).read_bytes()) for name in GOLDEN_REPORT}
    assert got == GOLDEN_REPORT


def test_report_files_match_their_digests(tmp_path):
    run_report(golden_survey(), categorical={"q4"}, out_dir=tmp_path)
    assert_golden_report(tmp_path)


def test_the_golden_survey_file_is_golden_survey_written_out():
    assert GOLDEN_SURVEY_FILE.read_bytes() == golden_survey_csv().encode()


def test_report_on_the_golden_survey_file_writes_the_pinned_files(tmp_path):
    # the file takes the byte route, so this pins that route from file to report
    assert load_survey_csv(GOLDEN_SURVEY_FILE).route == "bytes"
    assert main(["report", "--data", str(GOLDEN_SURVEY_FILE), "--categorical", "q4", "--out-dir", str(tmp_path / "r")]) == 0
    assert_golden_report(tmp_path / "r")


def test_both_routes_read_the_golden_survey_file_alike():
    assert loaded(load_survey_csv, GOLDEN_SURVEY_FILE) == loaded(survey._csv_rows, GOLDEN_SURVEY_FILE)


def test_tied_mwu_statistics_match_their_float_bits():
    for (x, y), expected in GOLDEN_MWU:
        r = mann_whitney_u(x, y)
        assert (r.u_x.hex(), r.z.hex(), r.p_two_sided.hex()) == expected, (x, y)


def test_sampled_case_bytes_match_their_digest():
    X, labels = sample_case_arrays(uniform_overlap_mixture(0.5, 1.0), 1000, 11)
    data = X.astype("<f8").tobytes() + labels.astype("<i8").tobytes()
    assert _sha256(data) == GOLDEN_CASES


def _mc_hex(mixture, cost, classifier):
    est = monte_carlo_cost(mixture, cost, classifier, 100_000, 42)
    return est.mean_cost.hex(), est.standard_error.hex()


def test_monte_carlo_costs_match_their_float_bits():
    overlap = uniform_overlap_mixture(0.5, 1.0)
    zero_one = CostMatrix.zero_one(2)
    weighted = gaussian_mixture(GAUSS_MEANS, 0.8, priors=[0.5, 0.3, 0.2])
    cost = CostMatrix([[0.0, 1.0, 4.0], [2.0, 0.0, 1.0], [1.0, 3.0, 0.0]])
    even = gaussian_mixture(GAUSS_MEANS, 0.8)
    got = {
        "midpoint": _mc_hex(overlap, zero_one, overlap_deterministic(0.5, 1.0)),
        "coin-flip": _mc_hex(overlap, zero_one, randomized_bayes_classifier(overlap, zero_one)),
        "bayes": _mc_hex(weighted, cost, bayes_classifier(weighted, cost)),
        "nearest-mean": _mc_hex(even, CostMatrix.zero_one(3), nearest_mean_classifier(even)),
    }
    assert got == GOLDEN_MC


# fictitious_play(rps, 10_000, tie_seed=3): row counts, column counts, float.hex of the value
GOLDEN_FP = ([3286, 3351, 3363], [3397, 3324, 3279], "0x1.3a92a30553261p-9")

# SHA-256 of the simulate-repeated --trace CSV, 1000 rounds, seed 7
GOLDEN_TRACES = {
    ("rps", "pure:0", "exploiter"): "f9ea0bf06a6ded129ef3f077d8924ffe58dc6acf997102e8c1ad7f5f44c75c06",
    ("mp", "mixed:0.5,0.5", "exploiter"): "4ac5f9b7b13a97e6d621333136d616af36b1fa699961cc3c3bcae55671b1c29b",
    ("mp", "exploiter", "exploiter"): "c1733611187b38c605a9e7ca254577eaa787cd8abb07fb14e7207b883300e05a",
}

# float.hex of the exploitability_report fields (exploiter average, policy
# average, value, gap, policy frequencies) on the 3x3 benchmark game, 1000 rounds, seed 6
GAME_3X3 = [[3, -1, 0], [-2, 4, 1], [0, 1, -3]]
GOLDEN_REPORTS = {
    "pure:0": (
        "0x1.fced916872b02p-1", "-0x1.fced916872b02p-1", "0x1.0000000000000p-1", "0x1.7e76c8b439581p+0",
        ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"),
    ),
    "mixed:0.3,0.3,0.4": (
        "0x1.b53f7ced91687p-1", "-0x1.b53f7ced91687p-1", "0x1.0000000000000p-1", "0x1.5a9fbe76c8b44p+0",
        ("0x1.3126e978d4fdfp-2", "0x1.4083126e978d5p-2", "0x1.8e5604189374cp-2"),
    ),
}

OVERLAP_JSON = json.dumps(
    {
        "dimension": 1,
        "components": [
            {"prior": 0.5, "density": {"kind": "uniform", "lo": 0.0, "hi": 1.0}},
            {"prior": 0.5, "density": {"kind": "uniform", "lo": 0.5, "hi": 1.5}},
        ],
    }
)


# stdout of each subcommand_argvs() call, with the report's out-dir masked as <out>
GOLDEN_STDOUT = {
    "classify-demo": (
        "classifier        n      seed  mean_cost  std_error   analytic\n"
        "randomized-bayes  20000  5     0.24555    0.00304355  0.25\n"
    ),
    "solve-game": (
        "field              value\n"
        "row                0.3286 0.3351 0.3363\n"
        "col                0.3397 0.3324 0.3279\n"
        "value              0.0024\n"
        "is_nash(tol=0.05)  true\n"
    ),
    "simulate-repeated": (
        "field            value\n"
        "avg_row_payoff   -0.295\n"
        "avg_col_payoff   0.295\n"
        "row_frequencies  0.208 0.504 0.288\n"
        "col_frequencies  0.0005 0 0.9995\n"
        "rounds           2000\n"
        "seed             9\n"
    ),
    "mwu": (
        "u_x  u_y  z         p_two_sided  tie_corrected  degenerate\n"
        "7    23   -1.45072  0.146858     true           false\n"
    ),
    "compare": (
        "question  group_a   group_b  u      p         significant\n"
        "q1        teachers  online   145.5  0.230804  false\n"
    ),
    "report": (
        "wrote <out>/comparisons.csv\n"
        "wrote <out>/q1.svg\n"
        "wrote <out>/q2.svg\n"
        "wrote <out>/q3.svg\n"
        "wrote <out>/q4.svg\n"
        "note: q1: low-n: group 'visitors' has 6 response(s) for 'q1'\n"
        "note: q2: low-n: group 'visitors' has 5 response(s) for 'q2'\n"
        "note: q3: low-n: group 'visitors' has 5 response(s) for 'q3'\n"
        "note: q4: low-n: group 'visitors' has 4 response(s) for 'q4'\n"
        "note: q4: categorical options: rank comparison and ordinal summaries omitted\n"
        "question  group_a   group_b   u      p           significant\n"
        "q1        visitors  teachers  22     0.0255425   true\n"
        "q1        visitors  online    26     0.258018    false\n"
        "q1        teachers  online    145.5  0.230804    false\n"
        "q2        visitors  teachers  25.5   0.0492897   true\n"
        "q2        visitors  online    2      0.00361093  true\n"
        "q2        teachers  online    73.5   0.0462846   true\n"
        "q3        visitors  teachers  94.5   0.0127578   true\n"
        "q3        visitors  online    52     0.0513226   false\n"
        "q3        teachers  online    128.5  0.624511    false\n"
    ),
}

# stdout of each subcommand_argvs() call with --format csv appended, masked alike
GOLDEN_CSV_STDOUT = {
    "classify-demo": (
        "classifier,n,seed,mean_cost,std_error,analytic\n"
        "randomized-bayes,20000,5,0.24555,0.00304355,0.25\n"
    ),
    "solve-game": (
        "field,value\n"
        "row,0.3286 0.3351 0.3363\n"
        "col,0.3397 0.3324 0.3279\n"
        "value,0.0024\n"
        "is_nash(tol=0.05),true\n"
    ),
    "simulate-repeated": (
        "field,value\n"
        "avg_row_payoff,-0.295\n"
        "avg_col_payoff,0.295\n"
        "row_frequencies,0.208 0.504 0.288\n"
        "col_frequencies,0.0005 0 0.9995\n"
        "rounds,2000\n"
        "seed,9\n"
    ),
    "mwu": (
        "u_x,u_y,z,p_two_sided,tie_corrected,degenerate\n"
        "7,23,-1.45072,0.146858,true,false\n"
    ),
    "compare": (
        "question,group_a,group_b,u,p,significant\n"
        "q1,teachers,online,145.5,0.230804,false\n"
    ),
    "report": (
        "wrote <out>/comparisons.csv\n"
        "wrote <out>/q1.svg\n"
        "wrote <out>/q2.svg\n"
        "wrote <out>/q3.svg\n"
        "wrote <out>/q4.svg\n"
        "note: q1: low-n: group 'visitors' has 6 response(s) for 'q1'\n"
        "note: q2: low-n: group 'visitors' has 5 response(s) for 'q2'\n"
        "note: q3: low-n: group 'visitors' has 5 response(s) for 'q3'\n"
        "note: q4: low-n: group 'visitors' has 4 response(s) for 'q4'\n"
        "note: q4: categorical options: rank comparison and ordinal summaries omitted\n"
        "question,group_a,group_b,u,p,significant\n"
        "q1,visitors,teachers,22,0.0255425,true\n"
        "q1,visitors,online,26,0.258018,false\n"
        "q1,teachers,online,145.5,0.230804,false\n"
        "q2,visitors,teachers,25.5,0.0492897,true\n"
        "q2,visitors,online,2,0.00361093,true\n"
        "q2,teachers,online,73.5,0.0462846,true\n"
        "q3,visitors,teachers,94.5,0.0127578,true\n"
        "q3,visitors,online,52,0.0513226,false\n"
        "q3,teachers,online,128.5,0.624511,false\n"
    ),
}


def subcommand_argvs(tmp_path) -> dict[str, list[str]]:
    """One seeded invocation of each subcommand; the survey ones read golden_survey() as CSV."""
    data = tmp_path / "survey.csv"
    data.write_text(golden_survey_csv())
    return {
        "classify-demo": ["classify-demo", "--mixture", OVERLAP_JSON, "--classifier", "mr", "--n", "20000",
                          "--seed", "5"],
        "solve-game": ["solve-game", "--game", "rps", "--method", "fp", "--iters", "10000", "--seed", "3"],
        "simulate-repeated": ["simulate-repeated", "--game", "rps", "--row", "mixed:0.2,0.5,0.3", "--col",
                              "exploiter", "--rounds", "2000", "--seed", "9"],
        "mwu": ["mwu", "--x", "1,2,2,3,3,3", "--y", "2,3,3,4,5"],
        "compare": ["compare", "--data", str(data), "--question", "q1", "--groups", "teachers,online"],
        "report": ["report", "--data", str(data), "--categorical", "q4", "--out-dir", str(tmp_path / "out")],
    }


def cli_stdout(argv, capsys, tmp_path) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out.replace(str(tmp_path / "out"), "<out>")


def test_fictitious_play_matches_its_counts_and_value_bits():
    r = fictitious_play(build_rock_paper_scissors(), 10_000, tie_seed=3)
    counts = [(s.probs * 10_000).round().astype(int).tolist() for s in (r.profile.row, r.profile.col)]
    assert (*counts, r.value_estimate.hex()) == GOLDEN_FP


def test_repeated_play_traces_match_their_digests(capsys, tmp_path):
    got = {}
    for game, row, col in GOLDEN_TRACES:
        path = tmp_path / "trace.csv"
        argv = ["simulate-repeated", "--game", game, "--row", row, "--col", col, "--rounds", "1000", "--seed", "7"]
        assert main(argv + ["--trace", str(path)]) == 0
        got[game, row, col] = _sha256(path.read_bytes())
    capsys.readouterr()
    assert got == GOLDEN_TRACES


def test_exploitability_reports_match_their_float_bits():
    game = zero_sum_game(GAME_3X3)
    policies = {"pure:0": PurePolicy(0), "mixed:0.3,0.3,0.4": MixedPolicy(MixedStrategy(np.array([0.3, 0.3, 0.4])))}
    got = {}
    for name, policy in policies.items():
        rep = exploitability_report(game, policy, 1000, 6)
        fields = (rep.exploiter_avg_payoff, rep.policy_avg_payoff, rep.game_value, rep.payoff_gap)
        got[name] = (*(f.hex() for f in fields), tuple(f.hex() for f in rep.policy_frequencies))
    assert got == GOLDEN_REPORTS


def test_subcommand_stdout_is_pinned(capsys, tmp_path):
    got = {name: cli_stdout(argv, capsys, tmp_path) for name, argv in subcommand_argvs(tmp_path).items()}
    assert got == GOLDEN_STDOUT


def test_subcommand_csv_stdout_is_pinned(capsys, tmp_path):
    argvs = subcommand_argvs(tmp_path)
    got = {name: cli_stdout(argv + ["--format", "csv"], capsys, tmp_path) for name, argv in argvs.items()}
    assert got == GOLDEN_CSV_STDOUT


def test_a_report_that_compares_nothing_prints_no_table_but_a_csv_header(capsys, tmp_path):
    argv = subcommand_argvs(tmp_path)["report"]
    argv[argv.index("q4")] = "q1,q2,q3,q4"
    table = cli_stdout(argv, capsys, tmp_path)
    assert {line.split(" ")[0] for line in table.splitlines()} == {"wrote", "note:"}
    assert cli_stdout(argv + ["--format", "csv"], capsys, tmp_path) == table + "question,group_a,group_b,u,p,significant\n"
