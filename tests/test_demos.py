"""The demo scripts run from a clean directory and reproduce their committed outputs."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def test_demos_reproduce_committed_outputs(tmp_path):
    scripts = sorted(DEMOS.glob("[0-9][0-9]_*.py"))
    assert len(scripts) == 6
    for script in scripts:
        shutil.copy(script, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for script in scripts:
        proc = subprocess.run([sys.executable, script.name], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, f"{script.name} failed:\n{proc.stderr}"
    committed = sorted(p.name for p in (DEMOS / "output").iterdir())
    assert len(committed) == 13
    assert sorted(p.name for p in (tmp_path / "output").iterdir()) == committed
    for name in committed:
        regenerated = (tmp_path / "output" / name).read_bytes()
        assert regenerated == (DEMOS / "output" / name).read_bytes(), name
