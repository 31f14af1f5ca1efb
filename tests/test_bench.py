"""Benchmark harness: duplicate injection, grids, reports, error bounds."""

import json
from pathlib import Path

import numpy as np
import pytest

from entity_sampler import bench
from entity_sampler.balanced import plan_sample_size
from entity_sampler.dataset import Dataset
from entity_sampler.gmm import plan_gmm
from entity_sampler.bench import (
    CellResult,
    ExperimentSpec,
    SampleReport,
    balanced_error_bound,
    emit_report,
    gmm_error_bound,
    inject_duplicates,
    load_report,
    run_experiment,
    save_report,
    ssc_error_bound,
    uniform_baseline_error,
)
from entity_sampler.ssc import plan_pair_budget
from entity_sampler.synth import dataset_from_freqs, dispersed_dataset, duplicate_text_corpus


def base_data(n=500):
    rng = np.random.default_rng(0)
    return dataset_from_freqs([1] * n, seed=0, values=rng.uniform(1, 2, n))


def test_tpch_profile_expected_copy_count():
    # copies per picked record: 1/2/3 at 80/15/5 percent, mean 1.25
    d = base_data(500)
    rate = 0.2
    added = [
        inject_duplicates(d, rate, "tpch", seed=s).n - d.n for s in range(100)
    ]
    assert np.mean(added) == pytest.approx(1.25 * rate * d.n, abs=2.0)


def test_uniform_profile_adds_exactly_one_copy_each():
    d = base_data(200)
    out = inject_duplicates(d, 0.25, "uniform", seed=1)
    assert out.n == d.n + 50


def test_arbitrary_profile_bounds():
    d = base_data(200)
    out = inject_duplicates(d, 0.25, "arbitrary", seed=2)
    assert d.n + 50 <= out.n <= d.n + 5 * 50


def test_zero_rate_is_identity():
    d = base_data(100)
    out = inject_duplicates(d, 0.0, "tpch", seed=3)
    assert out.n == d.n
    assert np.array_equal(out.ids, d.ids)


def test_injection_preserves_entities_and_clean_mean():
    d = base_data(300)
    out = inject_duplicates(d, 0.3, "tpch", seed=4)
    assert len(out.entity_freqs) == len(d.entity_freqs)
    assert out.entity_values().mean() == pytest.approx(d.entity_values().mean())
    copies = [i for i in out.ids if "+dup" in str(i)]
    assert len(copies) == out.n - d.n


@pytest.mark.parametrize("text_ids", [False, True])
def test_injected_ids_keep_the_clean_ids_and_name_their_source(text_ids):
    d = base_data(40)
    if text_ids:
        d = Dataset(ids=[f"r{i:03d}" for i in range(d.n)], features=d.features,
                          entity_labels=d.entity_labels, values=d.values)
    out = inject_duplicates(d, 0.25, "tpch", seed=5)
    assert out.ids[: d.n].tolist() == d.ids.tolist()
    # each copy is named after the clean record whose content it repeats
    for j, rid in enumerate(out.ids[d.n :].tolist()):
        src, tag = rid.split("+dup")
        assert tag == str(j)
        row = d.ids.tolist().index(src if text_ids else int(src))
        assert out.features[d.n + j, 0] == d.features[row, 0]
    assert out.ids.dtype == object


def test_injected_token_rows_equal_their_source_rows():
    d = duplicate_text_corpus(60, 0.3, seed=6, with_features=False)
    out = inject_duplicates(d, 0.3, "arbitrary", seed=7)
    assert out.n > d.n
    for j, rid in enumerate(out.ids.tolist()):
        src = rid if j < d.n else int(rid.split("+dup")[0])
        assert out.tokens[j] == d.tokens[src]


def test_injection_validation():
    d = base_data(50)
    with pytest.raises(ValueError):
        inject_duplicates(d, 1.0, "tpch", seed=0)
    with pytest.raises(ValueError):
        inject_duplicates(d, 0.1, "bogus", seed=0)


def tiny_spec(**over):
    kw = dict(
        dataset="dispersed:n_entities=200,mean_freq=10",
        method="balanced",
        sweep=(0.05, 0.1),
        dup_rates=(0.1,),
        repeats=2,
        seed=20260823,
    )
    kw.update(over)
    return ExperimentSpec(**kw)


def test_spec_json_round_trip(tmp_path):
    spec = tiny_spec()
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "dataset": spec.dataset,
                "method": spec.method,
                "sweep": list(spec.sweep),
                "dup_rates": list(spec.dup_rates),
                "repeats": spec.repeats,
                "seed": spec.seed,
            }
        )
    )
    loaded = ExperimentSpec.from_json(str(path))
    assert loaded.dataset == spec.dataset
    assert loaded.sweep == spec.sweep



def test_error_table_config_is_check_3_grid():
    path = Path(__file__).resolve().parents[1] / "scripts" / "error_table.json"
    spec = ExperimentSpec.from_json(str(path))
    assert spec.dataset == "dispersed:n_entities=25000,mean_freq=40"
    assert spec.method == "balanced"
    assert spec.sweep == (0.01, 0.02, 0.04, 0.06, 0.08, 0.1)
    assert spec.dup_rates == (0.1, 0.3)
    assert (spec.repeats, spec.seed) == (20, 20260823)
    assert (spec.profile, spec.schema, spec.method_params) == ("tpch", None, {})

def test_spec_from_json_refuses_a_file_that_is_not_an_object(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text("[]")
    with pytest.raises(ValueError, match="JSON object"):
        ExperimentSpec.from_json(str(path))


@pytest.mark.parametrize("key,value,match", [
    ("sweep", 0.1, "sweep must be a list of numbers"),
    ("sweep", "0.1", "sweep must be a list of numbers"),
    ("dup_rates", [0.1, "0.3"], "dup_rates must be a list of numbers"),
    ("dup_rates", [False], "dup_rates must be a list of numbers"),
    ("method_params", [], "method_params must be a JSON object"),
    ("method", ["balanced"], "unknown method"),
])
def test_spec_refuses_malformed_fields(tmp_path, key, value, match):
    raw = {"dataset": "x", "method": "balanced", "sweep": [0.1],
           "dup_rates": [0.1], "repeats": 1, "seed": 1, key: value}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=match):
        ExperimentSpec.from_json(str(path))


def test_spec_rejects_unknown_keys(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"dataset": "x", "method": "balanced", "sweep": [0.1], '
                    '"dup_rates": [0.1], "repeats": 1, "seed": 1, "typo": 2}')
    with pytest.raises(ValueError):
        ExperimentSpec.from_json(str(path))


@pytest.mark.parametrize("method,key", [
    ("lsh", "kmax"), ("lsh", "eta"), ("balanced", "k_max"), ("gmm", "mu_radius"),
    ("lsh", "budget"),
])
def test_spec_rejects_method_params_nothing_reads(method, key):
    # a misspelt "kmax" used to run silently with the default k_max
    with pytest.raises(ValueError, match=key):
        tiny_spec(method=method, method_params={key: 2})


def test_spec_accepts_every_method_param_that_is_read():
    tiny_spec(method="balanced", method_params={"eta": 0.1, "delta": 0.1})
    tiny_spec(method="lsh", method_params=dict(
        lam=0.2, delta=0.1, k_min=1, k_max=3, mu_radius=0.5))
    tiny_spec(method="gmm", method_params=dict(
        k=2, max_iter=50, tol=1e-6, tau=0.05, eta_min=0.2, dim=1, delta=0.1))


@pytest.mark.parametrize("method,params,key", [
    ("gmm", {"eta_min": 1.5, "tau": 0.05}, "eta_min"),
    ("gmm", {"eta_min": 0.2, "tau": 0.0}, "tau"),
    ("gmm", {"dim": 0}, "dim"),
    ("gmm", {"k": 2.5}, "k"),
    ("balanced", {"eta": 0.0}, "eta"),
    ("lsh", {"k_max": 1.9}, "k_max"),
])
def test_spec_rejects_invalid_method_param_values(method, params, key):
    # eta_min 1.5 used to run every cell and only fail when emit_report
    # computed the bounds; k_max 1.9 was truncated to 1
    with pytest.raises(ValueError, match=key):
        tiny_spec(method=method, method_params=params)


def test_spec_validation():
    with pytest.raises(ValueError):
        tiny_spec(method="magic")
    with pytest.raises(ValueError):
        tiny_spec(repeats=0)
    with pytest.raises(ValueError):
        tiny_spec(sweep=(0.0,))
    with pytest.raises(ValueError):
        tiny_spec(dup_rates=(1.0,))
    # these used to build, and then every cell failed
    for bad in (dict(repeats=1.5), dict(seed=0.5), dict(seed=-1)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            tiny_spec(**bad)


def test_grid_shape_and_success():
    report = run_experiment(tiny_spec())
    assert len(report.cells) == 2
    assert not report.failed_cells
    for cell in report.cells:
        assert cell.status == "ok"
        assert cell.mean_error >= 0.0
        assert cell.repeats == 2
        assert cell.mean_trials_per_accept >= 1.0
        assert 0.0 <= cell.tv_induced <= 1.0


def test_runs_are_deterministic(tmp_path):
    spec = tiny_spec()
    a, b = run_experiment(spec), run_experiment(spec)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    out_a.mkdir(), out_b.mkdir()
    emit_report(a, out_a)
    emit_report(b, out_b)
    assert (out_a / "cells.csv").read_bytes() == (out_b / "cells.csv").read_bytes()


def test_failed_cells_are_recorded_not_raised():
    report = run_experiment(tiny_spec(dataset="/nonexistent/data.csv"))
    assert len(report.failed_cells) == 2
    for cell in report.cells:
        assert cell.status == "error"
        assert cell.message


def test_lsh_pair_budget_is_the_cell_sample_size(monkeypatch):
    # the pair budget is always the cell's m; a spec cannot set it
    seen = []

    def recording_estimate(data, method, seed, *, m, **params):
        seen.append((m, params["budget"]))
        raise RuntimeError("recorded")

    monkeypatch.setattr(bench, "estimate", recording_estimate)
    report = run_experiment(tiny_spec(method="lsh"))
    assert len(report.failed_cells) == 2
    assert len(seen) == 2 and all(m == budget for m, budget in seen)


def test_error_decreases_with_fraction_on_average():
    spec = tiny_spec(sweep=(0.02, 0.2), repeats=5)
    report = run_experiment(spec)
    small, large = report.cells
    assert large.mean_error < small.mean_error


def test_zero_duplication_tracks_uniform_baseline():
    data = dispersed_dataset(300, 10, dup=0.0, seed=5)
    baselines = [uniform_baseline_error(data, 300, seed=s) for s in range(40)]
    spec = tiny_spec(
        dataset="dispersed:n_entities=300,mean_freq=10",
        sweep=(0.1,),
        dup_rates=(0.0,),
        repeats=10,
    )
    cell = run_experiment(spec).cells[0]
    base = np.mean(baselines)
    spread = np.std(baselines)
    assert abs(cell.mean_error - base) <= 2 * spread + 1e-3


def test_emit_report_layout(tmp_path):
    spec = tiny_spec(method_params={"eta": 0.001})
    report = run_experiment(spec)
    emit_report(report, tmp_path, bounds=True)
    lines = (tmp_path / "cells.csv").read_text().splitlines()
    assert lines[0] == (
        "method,dup_rate,fraction,repeats,mean_error,stderr_error,accuracy,"
        "mean_trials_per_accept,tv_induced,status,message,error_bound"
    )
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "balanced"
    assert float(first[6]) == pytest.approx(1.0 - float(first[4]))
    assert float(first[-1]) > 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_cells"] == 2
    assert summary["n_failed"] == 0


def test_empty_sweep_yields_header_only(tmp_path):
    report = run_experiment(tiny_spec(sweep=()))
    emit_report(report, tmp_path)
    lines = (tmp_path / "cells.csv").read_text().splitlines()
    assert len(lines) == 1


def test_baseline_column_merges_by_dup_rate_and_fraction(tmp_path):
    spec = tiny_spec(sweep=(0.1, 0.2), dup_rates=(0.0,))
    cells = tuple(CellResult(dup_rate=0.0, fraction=f, repeats=2, mean_error=0.01,
                             stderr_error=0.001, mean_trials_per_accept=1.5,
                             tv_induced=0.02, seconds=0.1) for f in spec.sweep)
    report = SampleReport(spec=spec, cells=cells)
    emit_report(report, tmp_path / "bare")
    bare = (tmp_path / "bare" / "cells.csv").read_text().splitlines()
    assert "baseline_error" not in bare[0]
    # "0" and "0.10" are the cell's 0.0 and 0.1 as numbers; 0.3 is no cell
    baseline = tmp_path / "baseline.csv"
    baseline.write_text("dup_rate,fraction,error\n0,0.10,0.042\n0,0.3,0.5\n")
    emit_report(report, tmp_path / "merged", baseline_csv=str(baseline))
    merged = (tmp_path / "merged" / "cells.csv").read_text().splitlines()
    assert merged[0] == bare[0] + ",baseline_error"
    assert merged[1:] == [bare[1] + ",0.042", bare[2] + ","]


def test_report_save_load_round_trip(tmp_path):
    report = run_experiment(tiny_spec())
    path = tmp_path / "report.json"
    save_report(report, path)
    back = load_report(path)
    assert back.spec == report.spec
    assert back.cells == report.cells


def test_balanced_bound_inverts_the_planner():
    for m in (10_000, 100_000, 1_000_000):
        eps = balanced_error_bound(m, eta=0.1, delta=0.1, n_entities=10)
        planned = plan_sample_size(eps, 0.1, 0.1, n_entities=10)
        assert planned.m_raw == pytest.approx(m, rel=0.01)
    assert balanced_error_bound(100_000, 0.1, 0.1) > balanced_error_bound(
        1_000_000, 0.1, 0.1
    )
    # a sample too small for any guarantee clamps to the vacuous bound
    assert balanced_error_bound(10, eta=0.01, delta=0.1, n_entities=50) == 1.0


def test_ssc_bound_inverts_the_planner():
    eps = ssc_error_bound(m_pairs=500, n_candidates=4, delta=0.1)
    assert plan_pair_budget(4, eps, 0.1) == pytest.approx(500, abs=1)


def test_gmm_bound_inverts_the_planner():
    kw = dict(delta=0.1, tau=0.05, eta_min=0.2, dim=2, k=3)
    for m in (10**7, 10**8, 10**9):
        eps = gmm_error_bound(m, **kw)
        planned = plan_gmm(eps, kw["delta"], kw["tau"], kw["eta_min"], kw["dim"],
                           kw["k"])
        assert planned.m_raw == pytest.approx(m, rel=0.01)
    # a sample too small for any guarantee clamps to the vacuous bound
    assert gmm_error_bound(10, **kw) == 1.0


def test_gmm_bound_monotone():
    kw = dict(delta=0.1, tau=0.05, eta_min=0.2, dim=1, k=2)
    assert gmm_error_bound(m=10**6, **kw) > gmm_error_bound(m=10**8, **kw)
