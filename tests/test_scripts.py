"""Smoke runs of the example scripts under scripts/, each in a fresh
interpreter with the package on PYTHONPATH and small arguments."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "name, headlines",
    [
        ("run_lsh_demo.py", ["LSH r=", "TV(induced, uniform)", "per accept"]),
        ("run_planner_curves.py", ["balanced sample size m", "LSH plan", "EM plan"]),
        ("output_hashes.py", ["entity_names ", "sample_clean[0.1] ", "cli gmm.sample.csv ",
                               "lsh[text].asked ", "lsh[text].asked_pairs ",
                               "lsh[vectors3d].outcomes ",
                               "em.loglik ", "lloyd[12d] "]),
    ],
)
def test_script_runs_and_prints_its_headlines(name, headlines):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), "--entities", "50"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for line in headlines:
        assert line in proc.stdout


def test_ab_lsh_compares_a_tree_with_itself():
    src = os.path.join(ROOT, "src")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "ab_lsh.py"), src, src,
         "--repeats", "1", "--vector-seeds", "4100", "--text-seeds", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split()[:3] == ["input", "old", "ms"]
    assert lines[1].startswith("lsh-vectors 4100") and lines[1].endswith("yes")
    assert lines[2].startswith("lsh-text 0") and lines[2].endswith("yes")
    assert lines[-1] == "outputs agree on every input: yes"
