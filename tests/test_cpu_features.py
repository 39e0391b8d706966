"""The golden pins and the certified decisions hold with numpy's SIMD dispatch cut down to its X86_V2 baseline."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DISABLED = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
ROOT = Path(__file__).resolve().parents[1]


def test_pins_hold_without_wide_simd():
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    if not set(DISABLED) <= set(umath.__cpu_dispatch__):
        pytest.skip(f"numpy does not dispatch to all of {', '.join(DISABLED)}")
    # only the child sees the variable: numpy reads it once, at import
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(DISABLED)}
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_golden.py", "tests/test_demos.py",
         "tests/test_certified_decisions.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-2000:]
