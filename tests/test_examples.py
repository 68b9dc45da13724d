"""Every example script must run to completion (they assert internally)."""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(name: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    out = _run("quickstart.py")
    assert "dotSeq" in out
    assert "168.0" in out


def test_harris_pipeline():
    out = _run("harris_pipeline.py")
    assert "PSNR" in out
    assert "modeled runtime" in out


def test_extending_the_compiler():
    out = _run("extending_the_compiler.py")
    assert "matches the numpy reference" in out
    assert "dropUnitMultiply" in out
