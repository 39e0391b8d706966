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


def test_learning_demo_stdout_matches_its_digest(capsys):
    runpy.run_path(str(DEMOS / "03_learning_and_exploitation.py"))["main"]()
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == "c0fab218e87b616fd97916f1f630a46a2e61dbd640ab046cb7412ece1f62f10f"
