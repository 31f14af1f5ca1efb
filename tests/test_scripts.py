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
                               "lsh[text-k2].asked ", "lsh[vectors3d].outcomes ",
                               "lsh[vectors2d-starved].outcomes ",
                               "lsh[sparse4d].group_ids ",
                               "ssc[exhaustive].report ", "ssc[cover].report ",
                               "ssc[cap].report ", "ssc[cap].asked ",
                               "ssc[filled].report ", "ssc[filled].asked ",
                               "em.loglik ", "lloyd[12d] ",
                               "lsh[text-copies].outcomes ", "kmeans[copies] k=4 ",
                               "tokens[text-only].dedup_codes ", "gmm[copies].map "]),
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
    assert lines[0].split() == ["input", "old", "ms", "new", "ms", "new/old",
                                "old", "part", "new", "part",
                                "old", "est", "new", "est", "old", "TV", "new",
                                "TV", "old", "q", "new", "q",
                                "groups", "map", "outcomes", "calls"]
    for line, label in zip(lines[1:3], ("lsh-vectors 4100", "lsh-text 0")):
        assert line.startswith(label)
        # a tree against itself: every output agrees, the same TV and calls
        assert line.split()[-4:] == ["yes"] * 4
        old_tv, new_tv, old_q, new_q = line.split()[-8:-4]
        assert old_tv == new_tv and old_q == new_q and int(old_q) > 0
    assert lines[-2] == "outputs agree on every input: yes"
    assert lines[-1] == "TV and oracle calls no worse on every input: yes"
