"""The measuring scripts under ``tools/`` run and print what they document."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_peak_rss_prints_the_commands_own_figures():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "peak_rss.py"), sys.executable, "-c", "pass"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert sorted(out) == ["exit_code", "peak_rss_mb", "wall_s"]
    assert out["exit_code"] == 0
    assert 0 < out["wall_s"] < 60
    # an empty interpreter (and the launcher) take about 13 MB; the test
    # runner's own high-water mark must not be inherited
    assert 0 < out["peak_rss_mb"] < 50
