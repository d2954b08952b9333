"""Every demo runs to completion against the current API."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", sorted(
    name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py")
))
def test_demo_exits_0(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
