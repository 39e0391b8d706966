import hashlib
import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_overlap_demo_runs_both_rules(capsys):
    main = runpy.run_path(str(DEMOS / "01_overlap_classifiers.py"))["main"]
    main.__globals__["N"] = 20_000  # the demo's one million cases take seconds
    main()
    out = capsys.readouterr().out
    assert "20,000 cases per estimate, seed 42" in out
    rows = [line.split() for line in out.splitlines() if line.startswith("   0.")]
    assert [r[0] for r in rows] == [f"0.{i}" for i in range(1, 10)]
    for a, exact, midpoint, coin, _ in (map(float, r) for r in rows):
        assert exact == round((1.0 - a) / 2.0, 4)
        assert abs(midpoint - exact) < 0.02 and abs(coin - exact) < 0.02


def test_harm_dilemma_demo_prints_the_exact_mix(capsys):
    runpy.run_path(str(DEMOS / "02_harm_dilemma.py"))["main"]()
    out = capsys.readouterr().out
    assert "equilibrium mix: harm X with p=0.75, harm Y with p=0.25" in out
    assert "verified Nash at 1e-9: False" not in out
    assert hashlib.sha256(out.encode()).hexdigest() == "5feb717688fbd97aeeb57b658a1d6d2f9aa99cf3b218302e8f6a367d6887385f"


def test_learning_demo_stdout_matches_its_digest(capsys):
    runpy.run_path(str(DEMOS / "03_learning_and_exploitation.py"))["main"]()
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == "c0fab218e87b616fd97916f1f630a46a2e61dbd640ab046cb7412ece1f62f10f"


def test_survey_demo_stdout_and_report_match_their_digests(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "04_survey_report.py"))["main"]()
    out = capsys.readouterr().out
    assert "Loaded 621 records" in out
    assert hashlib.sha256(out.encode()).hexdigest() == "88df8ca2d361c503f5cc2439f5c78b05fc70b833e231923c5000d089f2e3f1d3"
    digests = {
        "comparisons.csv": "d1f886d2f5368d83476c39a663887aba7f77c8a4b81f4854dc6ba01c575d3c2b",
        "q1.svg": "a6dba70ff99214f2f75d8511f6d5aa41cbdfce343606e043c8a0706e05302514",
        "q2.svg": "25dd7b59e08fc2180fc6d2ba25a33f5814eb6081a2c972801acba3d16fe307f0",
        "q3.svg": "5899a9b8d6b033141689119f2a5180fc039fa08977429875eb8dea8148590df8",
    }
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / "demo_output" / name).read_bytes()).hexdigest() == digest, name
