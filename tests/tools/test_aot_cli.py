"""The install-time prebuild CLI (``tools/aot.py``): usage errors exit 2."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "aot.py"


def test_unknown_backend_is_a_usage_error(tmp_path):
    """Exit 1 means --verify-warm found cold kernels, so an unknown backend
    must not exit 1 with a traceback; it names the known backends and
    writes no store."""
    store = tmp_path / "store"
    done = subprocess.run(
        [sys.executable, str(TOOL), "--cache-dir", str(store), "--backends", "python,cuda"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2
    lines = done.stderr.strip().splitlines()
    assert len(lines) == 1, done.stderr
    assert "cuda" in lines[0] and "known backends: python, c" in lines[0]
    assert not store.exists()
