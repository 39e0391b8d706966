"""Golden digests of seeded outputs, pinned across versions.

Every value here was computed once and written down; a change to any of
them means the program's output bytes changed. Re-pin a digest only when
the output is meant to change, and say which one and why in the change log.
"""

import hashlib

import numpy as np

from randrule import (
    SurveyDataset,
    SurveyRecord,
    mann_whitney_u,
    run_report,
    sample_case_arrays,
    uniform_overlap_mixture,
)

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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_report_files_match_their_digests(tmp_path):
    run_report(golden_survey(), categorical={"q4"}, out_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(GOLDEN_REPORT)
    got = {name: _sha256((tmp_path / name).read_bytes()) for name in GOLDEN_REPORT}
    assert got == GOLDEN_REPORT


def test_tied_mwu_statistics_match_their_float_bits():
    for (x, y), expected in GOLDEN_MWU:
        r = mann_whitney_u(x, y)
        assert (r.u_x.hex(), r.z.hex(), r.p_two_sided.hex()) == expected, (x, y)


def test_sampled_case_bytes_match_their_digest():
    X, labels = sample_case_arrays(uniform_overlap_mixture(0.5, 1.0), 1000, 11)
    data = X.astype("<f8").tobytes() + labels.astype("<i8").tobytes()
    assert _sha256(data) == GOLDEN_CASES
