"""Every demo in demos/ runs to completion in a fresh interpreter."""
import glob
import os
import subprocess
import sys

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "*.py")))


def test_demos_are_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, subprocess_env):
    proc = subprocess.run(
        [sys.executable, path], env=subprocess_env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
