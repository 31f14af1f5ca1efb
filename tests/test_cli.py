"""End-to-end checks of the command line front end.

Every test drives ``main`` directly with an argv list, so exit codes and
artifacts are exercised without spawning subprocesses: 0 for success, 1
for a bench run with failed cells, 2 for input errors.  The import guard is
the exception: it needs a fresh interpreter.
"""

from __future__ import annotations

import builtins
import csv
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import entity_sampler
from entity_sampler import cli
from entity_sampler.cli import _InteractiveOracle, estimate, main
from entity_sampler.dataset import (
    AmbiguousEntityWarning,
    CsvSchema,
    Dataset,
    DatasetError,
    ingest_csv,
)
from entity_sampler.gmm import MixtureModel, em_fit
from entity_sampler.rejection import ProbabilityMap, SampleBudgetError
from entity_sampler.synth import planted_clusters


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
    assert pmap.ids.tolist() == ["r0", "r1", "r2", "r3", "r4", "r5"]
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


def test_estimate_gmm_model_in_writes_the_per_record_density(tmp_path, capsys):
    data, schema = write_toy_csv(tmp_path)
    model = MixtureModel(weights=np.array([0.3, 0.7]),
                         means=np.array([[0.5, 0.0], [6.0, 3.0]]),
                         variances=np.array([2.0, 9.0]))
    model_path = str(tmp_path / "model.json")
    model.to_json(model_path)
    out = tmp_path / "map.csv"
    rc = main(["estimate", "--data", data, "--schema", schema, "--method", "gmm",
               "--model-in", model_path, "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    # the map as written one density per record, row by row
    records = ingest_csv(data, CsvSchema.from_json(schema))
    dense = tmp_path / "dense.csv"
    ProbabilityMap(dense=np.exp(model.logpdf(records.features))).to_csv(str(dense), records)
    assert out.read_bytes() == dense.read_bytes()


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


@pytest.mark.parametrize("module", ["entity_sampler", *(
    f"entity_sampler.{info.name}"
    for info in pkgutil.iter_modules(entity_sampler.__path__))])
def test_every_exported_name_resolves(module):
    # the package's lazy cli and bench names included: a name left in
    # __all__ after its definition is deleted fails here
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def write_planted_csv(tmp_path):
    """Twelve 2-d records: entities of 4, 3 and 2 exact copies plus three
    far-apart singletons."""
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
    return data, schema


def test_estimate_lsh_writes_map_and_blocking_report(tmp_path, capsys):
    data, schema = write_planted_csv(tmp_path)
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
    # the one 12-record block's radius forest fits its budget: its 6 edges
    # are asked once each, and nothing is inferred
    assert report["block_size_histogram"] == {"12": 1}
    assert report["oracle_queries"] == 6
    assert report["oracle_inferred"] == 0


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


def test_sample_rejects_a_map_whose_last_id_differs(tmp_path, capsys):
    data, schema = write_toy_csv(tmp_path)
    map_path = tmp_path / "map.csv"
    assert main(["estimate", "--data", data, "--schema", schema,
                 "--method", "balanced", "--m", "200", "--out", str(map_path)]) == 0
    capsys.readouterr()
    text = map_path.read_text(encoding="utf-8")
    assert "\nr5," in text
    map_path.write_text(text.replace("\nr5,", "\nr6,"), encoding="utf-8")
    rc = main(["sample", "--data", data, "--schema", schema,
               "--map", str(map_path), "--p", "5", "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "different dataset" in capsys.readouterr().err


def test_id_text_survives_estimate_and_sample(tmp_path, capsys):
    data = tmp_path / "ids.csv"
    data.write_text("id,f0,entity\n007,1.0,a\n7,1.0,a\n0x1,2.0,b\n",
                    encoding="utf-8")
    schema = tmp_path / "ids.schema.json"
    schema.write_text(json.dumps(
        {"feature_cols": ["f0"], "entity_col": "entity", "id_col": "id"}))
    args = ["--data", str(data), "--schema", str(schema)]
    map_path = str(tmp_path / "map.csv")
    assert main(["estimate", *args, "--method", "balanced", "--m", "50",
                 "--out", map_path]) == 0
    assert ProbabilityMap.from_csv(map_path).ids.tolist() == ["007", "7", "0x1"]
    sample_path = tmp_path / "sample.csv"
    assert main(["sample", *args, "--map", map_path, "--p", "200", "--seed", "3",
                 "--out", str(sample_path)]) == 0
    capsys.readouterr()
    with open(sample_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    picked = {(row["record_id"], row["entity"]) for row in rows}
    assert picked == {("007", "a"), ("7", "a"), ("0x1", "b")}


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
    rep_path = tmp_path / "blocking.json"
    rc = main(["estimate", "--data", str(data), "--schema", str(schema),
               "--method", "lsh", "--oracle", "interactive", "--seed", "3",
               "--pair-budget", "1", "--blocking-report", str(rep_path),
               "--out", map_path])
    assert rc == 0
    capsys.readouterr()
    assert asked
    assert len(asked) == len(set(asked))
    # the report counts the questions from the selection reports
    assert json.loads(rep_path.read_text())["oracle_queries"] == len(asked)
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
    # "maybe" is not an answer, so the first pair is asked twice
    assert len(prompts) == 3
    assert all("[r0]" in p and "[r1]" in p for p in prompts[:2])
    assert "[r1]" in prompts[2] and "[r2]" in prompts[2]


def test_interactive_oracle_with_input_closed_exits_two(tmp_path, capsys,
                                                        monkeypatch):
    data = tmp_path / "three.csv"
    data.write_text("id,x,y,entity\nr0,0,0,A\nr1,0.1,0,A\nr2,0.2,0,B\n",
                    encoding="utf-8")
    schema = tmp_path / "three.schema.json"
    schema.write_text(json.dumps({"feature_cols": ["x", "y"],
                                  "entity_col": "entity", "id_col": "id"}))

    def closed(prompt):
        raise EOFError

    monkeypatch.setattr(builtins, "input", closed)
    map_path = tmp_path / "map.csv"
    rc = main(["estimate", "--data", str(data), "--schema", str(schema),
               "--method", "lsh", "--oracle", "interactive", "--out", str(map_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert re.search(r"\[r\d\] vs \[r\d\] unanswered", err)
    assert not map_path.exists()


def test_gmm_collapse_exits_two_without_a_traceback(tmp_path, capsys):
    data = tmp_path / "two.csv"
    data.write_text("id,x\nr0,0\nr1,0\nr2,5\nr3,5\n", encoding="utf-8")
    schema = tmp_path / "two.schema.json"
    schema.write_text(json.dumps({"feature_cols": ["x"], "id_col": "id"}))
    rc = main(["estimate", "--data", str(data), "--schema", str(schema),
               "--method", "gmm", "--k", "4", "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: all 9 EM attempts collapsed a component (k=4)")
    assert "Traceback" not in err


def test_sample_budget_error_exits_two(tmp_path, capsys, monkeypatch):
    data, schema = write_toy_csv(tmp_path)
    map_path = str(tmp_path / "map.csv")
    assert main(["estimate", "--data", data, "--schema", schema,
                 "--method", "balanced", "--m", "50", "--out", map_path]) == 0
    capsys.readouterr()

    def exhausted(*args, **kwargs):
        raise SampleBudgetError("50000 trials produced 3 accepts; requested 5")

    monkeypatch.setattr(cli, "sample_clean", exhausted)
    rc = main(["sample", "--data", data, "--schema", schema, "--map", map_path,
               "--p", "5", "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: 50000 trials produced 3 accepts; requested 5\n")


def test_lsh_without_vectors_fails_before_blocking(tmp_path, capsys, monkeypatch):
    data = tmp_path / "text.csv"
    data.write_text("id,name,entity\nt0,alice smith,A\nt1,alice smith,A\n"
                    "t2,bob jones,B\n", encoding="utf-8")
    schema = tmp_path / "text.schema.json"
    schema.write_text(json.dumps({"text_cols": ["name"], "entity_col": "entity",
                                  "id_col": "id"}))

    def no_blocking(*args, **kwargs):
        raise AssertionError("records without vectors were blocked")

    monkeypatch.setattr(cli, "lsh_partition", no_blocking)
    rc = main(["estimate", "--data", str(data), "--schema", str(schema),
               "--method", "lsh", "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    assert "clustering requires vector records" in capsys.readouterr().err
    records = ingest_csv(str(data), CsvSchema.from_json(str(schema)))
    with pytest.raises(DatasetError, match="clustering requires vector records"):
        estimate(records, "lsh", 0)


def test_lsh_default_oracle_needs_entity_labels():
    data = Dataset(ids=("r0", "r1"), features=np.zeros((2, 1)))
    with pytest.raises(DatasetError, match="entity column"):
        estimate(data, "lsh", 0)


def test_estimate_rejects_an_unknown_method_and_a_missing_m():
    data = Dataset(ids=("r0", "r1"), features=np.zeros((2, 1)))
    with pytest.raises(ValueError, match="unknown method"):
        estimate(data, "kmeans", 0)
    with pytest.raises(ValueError, match="sample size m"):
        estimate(data, "balanced", 0)


def test_estimate_rejects_a_misspelt_method_keyword():
    # "kmax" used to run silently with the default k_max of 4
    data = planted_clusters(3, 5, 10.0, 2, seed=0)
    assert estimate(data, "lsh", 1, k_max=1).lsh.group_sizes.size == 1
    with pytest.raises(TypeError, match="kmax"):
        estimate(data, "lsh", 1, kmax=1)


@pytest.mark.parametrize("method, keyword", [
    ("lsh", "k_max"), ("lsh", "k_min"), ("lsh", "budget"),
    ("gmm", "k"), ("gmm", "max_iter"),
])
def test_estimate_refuses_a_count_that_is_not_an_integer(method, keyword):
    # k_max=1.9 used to be truncated to 1, one group where k_max=2 gives
    # the 3 planted groups (k = 1 against the answers of the radius forest)
    data = planted_clusters(3, 5, 10.0, 2, seed=0)
    assert estimate(data, "lsh", 1, k_max=2).lsh.group_sizes.size == 3
    with pytest.raises(ValueError, match=keyword):
        estimate(data, method, 1, **{keyword: 1.9})


@pytest.mark.parametrize("seed, budget", [(7, 200), (3, 5)])
def test_cli_lsh_artifact_equals_the_library_map(tmp_path, capsys, seed, budget):
    data, schema = write_planted_csv(tmp_path)
    cli_map = tmp_path / "cli.csv"
    rc = main(["estimate", "--data", str(data), "--schema", str(schema),
               "--method", "lsh", "--seed", str(seed), "--mu-radius", "5.0",
               "--pair-budget", str(budget), "--out", str(cli_map)])
    assert rc == 0
    capsys.readouterr()
    records = ingest_csv(str(data), CsvSchema.from_json(str(schema)))
    est = estimate(records, "lsh", seed, budget=budget, mu_radius=5.0)
    lib_map = tmp_path / "lib.csv"
    est.pmap.to_csv(str(lib_map), records)
    assert cli_map.read_bytes() == lib_map.read_bytes()
    assert est.blocking.q == len(est.blocking.blocks) == 1
    assert est.config.family == "hyperplane"
    assert est.fit is None


def test_gmm_subsample_fit_equals_em_fit_by_hand():
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(0.0, 1.0, (90, 2)), rng.normal(7.0, 1.0, (60, 2))])
    data = Dataset(ids=tuple(f"p{i}" for i in range(len(x))), features=x)
    est = estimate(data, "gmm", 12, m=40, k=2, max_iter=30, tol=1e-7)
    rows = np.random.default_rng(12).choice(len(x), size=40, replace=False)
    fit = em_fit(x[rows], 2, seed=12, max_iter=30, tol=1e-7)
    assert est.fit.loglik == fit.loglik
    np.testing.assert_array_equal(est.fit.model.means, fit.model.means)
    np.testing.assert_array_equal(est.pmap.resolve(data), np.exp(fit.model.logpdf(x)))
    # without m the fit sees every record, as the CLI's does
    full = estimate(data, "gmm", 12, k=2, max_iter=30, tol=1e-7)
    assert full.fit.loglik == em_fit(x, 2, seed=12, max_iter=30, tol=1e-7).loglik
    # a given model is scored as it is, with no fit
    given = estimate(data, "gmm", 0, m=40, model=fit.model)
    assert given.fit is None
    np.testing.assert_array_equal(given.pmap.resolve(data), est.pmap.resolve(data))
