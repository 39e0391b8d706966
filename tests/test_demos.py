import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_harm_dilemma_demo_prints_the_exact_mix(capsys):
    runpy.run_path(str(DEMOS / "02_harm_dilemma.py"))["main"]()
    out = capsys.readouterr().out
    assert "equilibrium mix: harm X with p=0.75, harm Y with p=0.25" in out
    assert "verified Nash at 1e-9: False" not in out
