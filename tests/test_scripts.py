"""Smoke tests of the stand-alone studies under scripts/.

Each script runs in a fresh interpreter from the repository root, with the
package taken from src/, small counts and any output file under tmp_path,
and must exit 0 with its summary lines.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / name), *argv],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_region_atlas(tmp_path):
    out_file = tmp_path / "atlas" / "boundary.csv"
    proc = run_script("region_atlas.py", "--out", str(out_file), "--spot-checks", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("x-region: D_t* = ")
    assert lines[1].startswith("y-region: D_t* = ")
    assert lines[2].startswith("corners: R_tx=")
    assert f"boundary samples -> {out_file}" in lines
    assert lines[-2:] == ["x-region spot checks: 2/2 pass", "y-region spot checks: 2/2 pass"]
    rows = out_file.read_text().splitlines()
    assert rows[0] == "axis,d_t,d_r_cap"
    assert {row.split(",")[0] for row in rows[1:]} == {"x", "y"}


def test_pb_convergence():
    scenario = REPO_ROOT / "scenarios" / "optimize_small.txt"
    proc = run_script(
        "pb_convergence.py", "--scenario", str(scenario), "--restarts", "1", "--max-outer", "3"
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("upper bound at declared orientation: ")
    assert lines[1].lstrip().startswith("focusing: ")
    assert lines[2].lstrip().startswith("random-0: ")
    assert "outer steps, stop=" in lines[2]
    assert lines[3].startswith("best converged MI: ")
    assert len(lines) == 4
