"""End-to-end checks of the command line front end.

Every test drives ``main`` directly with an argv list, so exit codes and
artifacts are exercised without spawning subprocesses: 0 for success, 1
for a bench run with failed cells, 2 for input errors.  The import guard is
the exception: it needs a fresh interpreter.
"""

from __future__ import annotations

import builtins
import csv
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import entity_sampler
from entity_sampler.cli import _InteractiveOracle, main
from entity_sampler.dataset import AmbiguousEntityWarning, Dataset
from entity_sampler.gmm import MixtureModel
from entity_sampler.rejection import ProbabilityMap


def write_toy_csv(tmp_path, name="toy.csv"):
    """Six records over three entities with exact duplicate contents."""
    rows = [
        ("r0", 0.0, 0.0, "A", 10.0),
        ("r1", 0.0, 0.0, "A", 10.0),
        ("r2", 0.0, 0.0, "A", 10.0),
        ("r3", 5.0, 5.0, "B", 20.0),
        ("r4", 5.0, 5.0, "B", 20.0),
        ("r5", 9.0, 1.0, "C", 30.0),
    ]
    data = tmp_path / name
    with open(data, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "f0", "f1", "entity", "value"])
        writer.writerows(rows)
    schema = tmp_path / (name + ".schema.json")
    schema.write_text(json.dumps({
        "feature_cols": ["f0", "f1"],
        "entity_col": "entity",
        "value_col": "value",
        "id_col": "id",
    }))
    return str(data), str(schema)


def test_ingest_reports_stats(tmp_path, capsys):
    data, schema = write_toy_csv(tmp_path)
    assert main(["ingest", "--data", data, "--schema", schema]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["records"] == 6
    assert stats["distinct_contents"] == 3
    assert stats["has_features"] and not stats["has_tokens"]
    assert stats["entities"] == 3
    assert stats["eta"] == pytest.approx(1 / 6)


def test_ingest_writes_a_reingestable_copy(tmp_path, capsys):
    data, schema = write_toy_csv(tmp_path)
    out = str(tmp_path / "copy.csv")
    assert main(["ingest", "--data", data, "--schema", schema,
                 "--out", out]) == 0
    capsys.readouterr()
    assert main(["ingest", "--data", out,
                 "--schema", out + ".schema.json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["records"] == 6
    assert stats["distinct_contents"] == 3
    assert stats["eta"] == pytest.approx(1 / 6)


def test_ingest_warns_once_on_ambiguous_labels(tmp_path, capsys):
    data, schema = write_toy_csv(tmp_path)
    with open(data, "a", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(["r6", 0.0, 0.0, "D", 10.0])  # r0's content
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["ingest", "--data", data, "--schema", schema]) == 0
    capsys.readouterr()
    ambiguous = [w for w in caught if issubclass(w.category, AmbiguousEntityWarning)]
    assert len(ambiguous) == 1


def test_inject_appends_labeled_copies(tmp_path, capsys):
    data, schema = write_toy_csv(tmp_path)
    out = str(tmp_path / "dirty.csv")
    rc = main(["inject", "--data", data, "--schema", schema,
               "--rate", "0.5", "--profile", "uniform", "--seed", "0",
               "--out", out])
    assert rc == 0
    info = json.loads(capsys.readouterr().out)
    assert info == {"records_in": 6, "records_out": 9, "added": 3}
    assert main(["ingest", "--data", out,
                 "--schema", out + ".schema.json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["records"] == 9
    assert stats["entities"] == 3
    with open(out, encoding="utf-8", newline="") as fh:
        ids = [row["id"] for row in csv.DictReader(fh)]
    assert sum("+dup" in rid for rid in ids) == 3


def test_estimate_and_sample_round_trip(tmp_path, capsys):
    data, schema = write_toy_csv(tmp_path)
    map_path = str(tmp_path / "map.csv")
    rc = main(["estimate", "--data", data, "--schema", schema,
               "--method", "balanced", "--m", "500", "--seed", "1",
               "--out", map_path])
    assert rc == 0
    info = json.loads(capsys.readouterr().out)
    assert info["records"] == 6
    assert info["artifact"] == map_path
    pmap = ProbabilityMap.from_csv(map_path)
    assert pmap.ids == ("r0", "r1", "r2", "r3", "r4", "r5")
    assert pmap.floor == pytest.approx(info["floor"])
    assert pmap.floor > 0

    sample_path = str(tmp_path / "sample.csv")
    rc = main(["sample", "--data", data, "--schema", schema,
               "--map", map_path, "--p", "40", "--seed", "2",
               "--out", sample_path])
    assert rc == 0
    info = json.loads(capsys.readouterr().out)
    assert info["accepted"] == 40
    assert info["trials"] >= 40
    assert info["trials_per_accept"] == pytest.approx(info["trials"] / 40)
    with open(sample_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 40
    assert {row["entity"] for row in rows} <= {"A", "B", "C"}
    assert {row["record_id"] for row in rows} <= set(pmap.ids)
    assert {float(row["value"]) for row in rows} <= {10.0, 20.0, 30.0}


def test_estimate_balanced_planner_flags(tmp_path, capsys):
    data, schema = write_toy_csv(tmp_path)
    out = str(tmp_path / "map.csv")
    rc = main(["estimate", "--data", data, "--schema", schema,
               "--method", "balanced", "--epsilon", "0.5", "--delta", "0.5",
               "--eta", "0.2", "--entities", "3", "--seed", "4",
               "--out", out])
    assert rc == 0
    capsys.readouterr()
    pmap = ProbabilityMap.from_csv(out)
    assert pmap.dense.shape == (6,)
    assert pmap.floor > 0


def test_estimate_balanced_without_eta_or_m_fails(tmp_path, capsys):
    data, schema = write_toy_csv(tmp_path)
    rc = main(["estimate", "--data", data, "--schema", schema,
               "--method", "balanced", "--out", str(tmp_path / "map.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_estimate_gmm_model_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(11)
    xs = np.concatenate([rng.normal(0.0, 1.0, 120), rng.normal(6.0, 1.0, 80)])
    data = tmp_path / "mix.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "x"])
        for i, x in enumerate(xs):
            writer.writerow([f"p{i}", f"{x:.17g}"])
    schema = tmp_path / "mix.schema.json"
    schema.write_text(json.dumps({"feature_cols": ["x"], "id_col": "id"}))

    model_path = str(tmp_path / "model.json")
    rc = main(["estimate", "--data", str(data), "--schema", str(schema),
               "--method", "gmm", "--k", "2", "--seed", "3",
               "--model-out", model_path, "--iters", "50",
               "--out", str(tmp_path / "map_a.csv")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["em_converged"] is True
    assert 1 <= report["em_iterations"] <= 50
    assert report["em_restarts"] == 0
    model = MixtureModel.from_json(model_path)
    assert sorted(model.means.ravel()) == pytest.approx([0.0, 6.0], abs=0.5)

    rc = main(["estimate", "--data", str(data), "--schema", str(schema),
               "--method", "gmm", "--model-in", model_path,
               "--out", str(tmp_path / "map_b.csv")])
    assert rc == 0
    assert "em_iterations" not in json.loads(capsys.readouterr().out)
    # tolist/json round-trips float64 exactly, so the reloaded model
    # reproduces the artifact byte for byte
    assert (tmp_path / "map_a.csv").read_bytes() == \
        (tmp_path / "map_b.csv").read_bytes()


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(entity_sampler.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, entity_sampler.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_the_bench_harness_unloaded():
    src = os.path.dirname(os.path.dirname(entity_sampler.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, entity_sampler.cli; "
            "print(sorted(m for m in ('entity_sampler.bench', 'entity_sampler.synth') "
            "if m in sys.modules)); "
            "from entity_sampler import run_experiment; "
            "print(run_experiment.__module__)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["[]", "entity_sampler.bench"]


def test_estimate_lsh_writes_map_and_blocking_report(tmp_path, capsys):
    rows = []
    spots = {"A": (20.0, -10.0, 4), "B": (50.0, 50.0, 3), "C": (-40.0, 30.0, 2)}
    for name, (x, y, count) in spots.items():
        for j in range(count):
            rows.append((f"{name}{j}", x, y, name, 1.0))
    for j, (x, y) in enumerate([(200.0, 0.0), (0.0, 200.0), (-200.0, -200.0)]):
        rows.append((f"s{j}", x, y, f"S{j}", 1.0))
    data = tmp_path / "plant.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "f0", "f1", "entity", "value"])
        writer.writerows(rows)
    schema = tmp_path / "plant.schema.json"
    schema.write_text(json.dumps({
        "feature_cols": ["f0", "f1"],
        "entity_col": "entity",
        "value_col": "value",
        "id_col": "id",
    }))

    map_path = str(tmp_path / "map.csv")
    rep_path = str(tmp_path / "blocking.json")
    rc = main(["estimate", "--data", str(data), "--schema", str(schema),
               "--method", "lsh", "--seed", "7",
               "--k-min", "1", "--k-max", "3", "--pair-budget", "200",
               "--mu-radius", "5.0", "--blocking-report", rep_path,
               "--out", map_path])
    assert rc == 0
    capsys.readouterr()
    pmap = ProbabilityMap.from_csv(map_path)
    # duplicate groups share exact content, so blocking can never split
    # them and the label oracle recovers the group sizes exactly
    expected = sorted([4 / 12] * 4 + [3 / 12] * 3 + [2 / 12] * 2 + [1 / 12] * 3)
    assert sorted(pmap.dense) == pytest.approx(expected)
    report = json.loads((tmp_path / "blocking.json").read_text())
    assert report["rows"] >= 1 and report["bands"] >= 1
    assert report["n_blocks"] == len(report["block_size_histogram"]) or \
        sum(report["block_size_histogram"].values()) == report["n_blocks"]
    # the one 12-record block fits its budget and is scored exhaustively:
    # each of its 66 pairs is either asked or settled by earlier answers
    assert report["block_size_histogram"] == {"12": 1}
    assert report["oracle_queries"] + report["oracle_inferred"] == 66
    assert 0 < report["oracle_queries"] < 66


def test_sample_detects_foreign_map(tmp_path, capsys):
    data, schema = write_toy_csv(tmp_path)
    map_path = str(tmp_path / "map.csv")
    assert main(["estimate", "--data", data, "--schema", schema,
                 "--method", "balanced", "--m", "200", "--out", map_path]) == 0
    capsys.readouterr()
    dirty = str(tmp_path / "dirty.csv")
    assert main(["inject", "--data", data, "--schema", schema,
                 "--rate", "0.5", "--out", dirty]) == 0
    capsys.readouterr()
    rc = main(["sample", "--data", dirty, "--schema", dirty + ".schema.json",
               "--map", map_path, "--p", "5",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "different dataset" in capsys.readouterr().err


def test_sample_rejects_a_map_with_a_short_row(tmp_path, capsys):
    data, schema = write_toy_csv(tmp_path)
    map_path = tmp_path / "map.csv"
    map_path.write_text("record_id,phat\nr0,0.5\nr1\n", encoding="utf-8")
    rc = main(["sample", "--data", data, "--schema", schema,
               "--map", str(map_path), "--p", "5",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{map_path} line 3" in err
    assert "Traceback" not in err


def test_bench_cli_runs_and_report_rerenders(tmp_path, capsys):
    cfg = {
        "dataset": "dispersed:n_entities=200,mean_freq=10",
        "method": "balanced",
        "sweep": [0.05, 0.1],
        "dup_rates": [0.1],
        "repeats": 2,
        "seed": 20260823,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    out_a = tmp_path / "run"
    rc = main(["bench", "--config", str(cfg_path), "--out", str(out_a)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_cells"] == 2
    assert summary["n_failed"] == 0
    for name in ("report.json", "cells.csv", "summary.json"):
        assert (out_a / name).exists()

    out_b = tmp_path / "rerun"
    rc = main(["report", "--report", str(out_a / "report.json"),
               "--out", str(out_b)])
    assert rc == 0
    capsys.readouterr()
    assert (out_a / "cells.csv").read_bytes() == (out_b / "cells.csv").read_bytes()


def test_bench_cli_flags_failed_cells(tmp_path, capsys):
    cfg = {
        "dataset": str(tmp_path / "nonexistent.csv"),
        "method": "balanced",
        "sweep": [0.1],
        "dup_rates": [0.1],
        "repeats": 1,
        "seed": 1,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["bench", "--config", str(cfg_path),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["n_failed"] == 1
    assert "failed" in captured.err


def test_missing_input_exits_two(tmp_path, capsys):
    _, schema = write_toy_csv(tmp_path)
    rc = main(["ingest", "--data", str(tmp_path / "nope.csv"),
               "--schema", schema])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_text_dataset_cannot_be_rewritten(tmp_path, capsys):
    data = tmp_path / "text.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "name"])
        writer.writerow(["t0", "alice smith"])
        writer.writerow(["t1", "bob jones"])
    schema = tmp_path / "text.schema.json"
    schema.write_text(json.dumps({"text_cols": ["name"], "id_col": "id"}))
    rc = main(["ingest", "--data", str(data), "--schema", str(schema),
               "--out", str(tmp_path / "copy.csv")])
    assert rc == 2
    assert "only feature datasets" in capsys.readouterr().err


def test_interactive_lsh_never_repeats_a_prompt(tmp_path, capsys, monkeypatch):
    # (id, text, x, y, entity): exact-duplicate texts always share a block;
    # "a" is a one-sided 3-record block that a pair budget of 1 sends
    # through sampled selection, "c0"/"d0" share a text but not an entity
    rows = [
        ("a0", "alice smith", 0.0, 0.0, "A"),
        ("a1", "alice smith", 0.2, 0.0, "A"),
        ("a2", "alice smith", 0.4, 0.0, "A"),
        ("b0", "bob jones", 20.0, 0.0, "B"),
        ("b1", "bob jones", 20.2, 0.0, "B"),
        ("c0", "carol white", 40.0, 0.0, "C"),
        ("d0", "carol white", 40.5, 0.0, "D"),
        ("e0", "dave brown", 60.0, 0.0, "E"),
    ]
    data = tmp_path / "names.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "name", "f0", "f1", "entity"])
        writer.writerows(rows)
    schema = tmp_path / "names.schema.json"
    schema.write_text(json.dumps({
        "text_cols": ["name"], "feature_cols": ["f0", "f1"],
        "entity_col": "entity", "id_col": "id",
    }))
    entity = {rid: ent for rid, _, _, _, ent in rows}
    asked = []

    def answer(prompt):
        a, b = re.search(r"\[(.+?)\] vs \[(.+?)\]", prompt).groups()
        asked.append(frozenset((a, b)))
        return "y" if entity[a] == entity[b] else "n"

    monkeypatch.setattr(builtins, "input", answer)
    map_path = str(tmp_path / "map.csv")
    rc = main(["estimate", "--data", str(data), "--schema", str(schema),
               "--method", "lsh", "--oracle", "interactive", "--seed", "3",
               "--pair-budget", "1", "--out", map_path])
    assert rc == 0
    capsys.readouterr()
    assert asked
    assert len(asked) == len(set(asked))
    pmap = ProbabilityMap.from_csv(map_path)
    expected = sorted([3 / 8] * 3 + [2 / 8] * 2 + [1 / 8] * 3)
    assert sorted(pmap.dense) == pytest.approx(expected)


def test_interactive_oracle_asks_until_answered(monkeypatch):
    data = Dataset(ids=("r0", "r1", "r2"), features=np.zeros((3, 1)))
    answers = iter(["maybe", "y", "no"])
    prompts = []

    def scripted(prompt):
        prompts.append(prompt)
        return next(answers)

    monkeypatch.setattr(builtins, "input", scripted)
    oracle = _InteractiveOracle(data)
    assert oracle(0, 1) is True
    assert oracle(1, 2) is False
    assert oracle.queries == 2
    # "maybe" is not an answer, so the first pair is asked twice
    assert len(prompts) == 3
    assert all("[r0]" in p and "[r1]" in p for p in prompts[:2])
    assert "[r1]" in prompts[2] and "[r2]" in prompts[2]
