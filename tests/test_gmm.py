"""Spherical mixture fitting and density-based estimates.

Density oracle: scipy's normal pdf evaluated by hand-written mixture sums,
independent of the model's own logsumexp path.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import norm

from entity_sampler import bench, synth
from entity_sampler.dataset import Dataset
from entity_sampler.gmm import (
    CollapseError,
    DensityUnderflowError,
    EmResult,
    MixtureModel,
    SeparationWarning,
    em_fit,
    estimate_probs_gmm,
    plan_gmm,
)
from entity_sampler.gmm import (
    _MAX_RESTARTS,
    _init_params,
    _log_components,
    _normalize,
    _sq_distances,
)


def two_component():
    return MixtureModel(
        weights=np.array([0.5, 0.5]),
        means=np.array([[0.0], [6.0]]),
        variances=np.array([1.0, 1.0]),
    )


def four_in_three_d():
    return MixtureModel(
        weights=np.array([0.1, 0.2, 0.3, 0.4]),
        means=np.array([[0.0, 0.0, 0.0], [5.0, -1.0, 2.0],
                        [-3.0, 4.0, 1.0], [2.0, 2.0, -6.0]]),
        variances=np.array([0.5, 1.0, 2.0, 0.25]),
    )


def sample_mixture(model, n, seed):
    rng = np.random.default_rng(seed)
    comps = rng.choice(len(model.weights), size=n, p=model.weights)
    sigma = np.sqrt(model.variances[comps])[:, None]
    return model.means[comps] + sigma * rng.standard_normal((n, model.dim))


def test_pdf_matches_scipy_oracle():
    m = two_component()
    xs = np.array([[0.0], [3.0], [6.0], [-2.5]])
    got = m.pdf(xs)
    want = 0.5 * norm.pdf(xs[:, 0], 0.0, 1.0) + 0.5 * norm.pdf(xs[:, 0], 6.0, 1.0)
    assert np.allclose(got, want, rtol=1e-12)
    assert np.allclose(m.logpdf(xs), np.log(want), rtol=1e-12)


def test_logpdf_stable_in_tails():
    m = two_component()
    lp = m.logpdf(np.array([[30.0]]))
    # exact: log(0.5) + logN(30; 6, 1) dominates
    want = np.log(0.5) + norm.logpdf(30.0, 6.0, 1.0)
    assert lp[0] == pytest.approx(want, rel=1e-9)


def test_logpdf_matches_logsumexp_reference_in_three_d():
    m = four_in_three_d()
    rng = np.random.default_rng(5)
    near = sample_mixture(m, 200, seed=6)
    # 40 sigma of the widest component out, in random directions
    dirs = rng.standard_normal((20, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    far = m.means[rng.integers(4, size=20)] + 40.0 * np.sqrt(2.0) * dirs
    xs = np.vstack([near, far])
    # spherical component = product of 1-d normals, one per coordinate
    log_comp = np.stack([
        np.log(w) + norm.logpdf(xs, mu, np.sqrt(v)).sum(axis=1)
        for w, mu, v in zip(m.weights, m.means, m.variances)
    ], axis=1)
    want = logsumexp(log_comp, axis=1)
    assert want[200:].max() < -500.0
    assert np.allclose(m.logpdf(xs), want, rtol=1e-12, atol=0.0)


def test_estimates_are_model_densities():
    m = two_component()
    d = Dataset(ids=(0, 1, 2), features=np.array([[0.0], [1.0], [6.0]]))
    dense = estimate_probs_gmm(d, m).resolve(d)
    assert np.allclose(dense / m.pdf(d.features), 1.0, rtol=1e-12)


def test_underflow_raises():
    d = Dataset(ids=(0,), features=np.array([[500.0]]))
    with pytest.raises(DensityUnderflowError):
        estimate_probs_gmm(d, two_component())
    # one far content among copies of near ones
    d = Dataset(ids=tuple(range(5)), features=np.array([[0.0], [0.0], [500.0], [6.0], [500.0]]))
    with pytest.raises(DensityUnderflowError):
        estimate_probs_gmm(d, two_component())


def test_map_per_content_resolves_to_the_per_record_density():
    m = four_in_three_d()
    clean = Dataset(ids=tuple(range(400)), features=sample_mixture(m, 400, seed=4))
    d = bench.inject_duplicates(clean, 0.3, "tpch", 5)
    pmap = estimate_probs_gmm(d, m)
    assert pmap.dense is None and pmap.by_code.size == d.dedup_freqs.size < d.n
    assert np.array_equal(pmap.resolve(d), np.exp(m.logpdf(d.features)))


def test_separation_check_and_warning():
    assert two_component().check_separation()
    close = MixtureModel(
        weights=np.array([0.5, 0.5]),
        means=np.array([[0.0], [0.5]]),
        variances=np.array([1.0, 1.0]),
    )
    with pytest.warns(SeparationWarning):
        assert not close.check_separation()


def test_model_validation():
    with pytest.raises(ValueError):
        MixtureModel(
            weights=np.array([0.7, 0.7]),
            means=np.array([[0.0], [1.0]]),
            variances=np.array([1.0, 1.0]),
        )
    with pytest.raises(ValueError):
        MixtureModel(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0], [1.0]]),
            variances=np.array([1.0, -1.0]),
        )


def test_em_loglik_monotone_and_recovers():
    truth = two_component()
    for seed in range(5):
        x = sample_mixture(truth, 5000, seed)
        res = em_fit(x, k=2, seed=seed)
        trace = np.array(res.loglik)
        assert np.all(np.diff(trace) >= -1e-7)
        assert res.converged
        order = np.argsort(res.model.means[:, 0])
        assert np.allclose(res.model.means[order, 0], [0.0, 6.0], atol=0.1)
        assert np.allclose(res.model.weights[order], [0.5, 0.5], atol=0.05)
        assert np.allclose(res.model.variances[order], [1.0, 1.0], atol=0.15)


def test_em_final_loglik_is_the_returned_models():
    x = sample_mixture(four_in_three_d(), 3000, seed=7)
    for max_iter in (3, 200):
        res = em_fit(x, k=4, seed=1, max_iter=max_iter)
        assert res.converged == (max_iter == 200)
        assert len(res.loglik) == res.iterations + 1
        assert res.loglik[-1] == pytest.approx(
            res.model.logpdf(x).sum(), rel=1e-12)


def test_em_stopping_rule_ignores_scale():
    # acceptance check 7's mixture; at the shifted scale these two seeds ran
    # all 200 iterations under a rule on absolute parameter change
    for s in (0, 3):
        rng = np.random.default_rng(s)
        xs = np.concatenate([rng.normal(0.0, 1.0, 5000),
                             rng.normal(6.0, 1.0, 5000)]).reshape(-1, 1)
        raw = em_fit(xs, 2, seed=s)
        shifted = em_fit(xs * 1e5 + 1e6, 2, seed=s)
        assert raw.converged and shifted.converged
        assert shifted.iterations == raw.iterations
        assert np.allclose((shifted.model.means - 1e6) / 1e5, raw.model.means,
                           rtol=0.0, atol=1e-9)


def test_em_accepts_dataset():
    truth = two_component()
    x = sample_mixture(truth, 2000, 3)
    d = Dataset(ids=tuple(range(2000)), features=x)
    res = em_fit(d, k=2, seed=3)
    assert res.model.means.shape == (2, 1)


def em_per_record(x, k, seed, max_iter=200, tol=1e-6):
    """EM over every record with no weights: the fit that the copy-weighted
    one must reproduce, with the same initialization and restarts."""
    n, d = x.shape
    for attempt, child in enumerate(np.random.SeedSequence(seed).spawn(_MAX_RESTARTS + 1)):
        weights, means, variances = _init_params(x, k, np.random.default_rng(child))
        sq, history, iterations = _sq_distances(x, means), [], 0
        while True:
            log_norm, resp = _normalize(_log_components(sq, weights, variances, d))
            history.append(float(log_norm.sum()))
            converged = len(history) > 1 and (history[-1] - history[-2]) / n < tol
            if converged or iterations == max_iter:
                return EmResult(MixtureModel(weights, means, variances), tuple(history),
                                iterations, converged, attempt)
            mass = resp.sum(axis=1)
            weights = mass / n
            means = (resp @ x) / mass[:, None]
            sq = _sq_distances(x, means)
            variances = (resp * sq).sum(axis=1) / (mass * d)
            if (weights < 1e-8).any() or (variances < 1e-8).any():
                break
            iterations += 1
    raise CollapseError


@pytest.mark.parametrize("seed", range(5))
def test_em_on_copies_equals_the_per_record_fit(seed):
    clean = synth.dispersed_dataset(80, 20, 0.3, seed=seed)
    data = bench.inject_duplicates(clean, 0.3, "tpch", seed + 10)
    assert data.dedup_freqs.size < data.n
    # at k = 3 these seeds stop on the rule, except 1 and 4, which run
    # all 200 iterations
    got = em_fit(data, 3, seed=seed)
    want = em_per_record(data.features, 3, seed)
    assert (got.iterations, got.converged, got.restarts_used) == \
        (want.iterations, want.converged, want.restarts_used)
    for a, b in [(got.loglik, want.loglik),
                 (got.model.weights, want.model.weights),
                 (got.model.means, want.model.means),
                 (got.model.variances, want.model.variances)]:
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)
    # an array of the same rows is factorized by em_fit itself
    assert em_fit(data.features, 3, seed=seed).loglik == got.loglik


def test_em_on_distinct_rows_is_the_per_record_fit_bit_for_bit():
    x = sample_mixture(four_in_three_d(), 3000, seed=11) + 1e6
    for max_iter in (4, 200):
        got = em_fit(x, 4, seed=2, max_iter=max_iter)
        want = em_per_record(x, 4, 2, max_iter=max_iter)
        assert got.loglik == want.loglik
        assert (got.iterations, got.converged, got.restarts_used) == \
            (want.iterations, want.converged, want.restarts_used)
        for name in ("weights", "means", "variances"):
            assert np.array_equal(getattr(got.model, name), getattr(want.model, name))


def test_em_collapse_after_restarts():
    with pytest.raises(CollapseError):
        em_fit(np.zeros((60, 1)), k=2, seed=0)


def test_plan_golden_values():
    plan = plan_gmm(0.1, 0.1, 0.01, eta_min=0.2, dim=2, k=2)
    assert plan.iterations == 7
    assert plan.m_raw == pytest.approx(225391584.1267696, rel=1e-12)
    assert plan.m == 225391585


def test_plan_dimension_cubed_scaling():
    base = plan_gmm(0.1, 0.1, 0.01, eta_min=0.2, dim=2, k=2)
    doubled = plan_gmm(0.1, 0.1, 0.01, eta_min=0.2, dim=4, k=2)
    assert doubled.iterations == base.iterations
    assert doubled.m_raw == pytest.approx(8 * base.m_raw, rel=1e-12)


def test_plan_monotone_in_tolerance_knobs():
    base = plan_gmm(0.1, 0.1, 0.05, eta_min=0.2, dim=2, k=2)
    assert plan_gmm(0.05, 0.1, 0.05, eta_min=0.2, dim=2, k=2).m > base.m
    tighter_tau = plan_gmm(0.1, 0.1, 0.01, eta_min=0.2, dim=2, k=2)
    assert tighter_tau.m > base.m
    assert tighter_tau.iterations >= base.iterations


def test_plan_validation():
    with pytest.raises(ValueError):
        plan_gmm(0.0, 0.1, 0.01, eta_min=0.2, dim=2, k=2)
    with pytest.raises(ValueError):
        plan_gmm(0.1, 0.1, 0.01, eta_min=0.0, dim=2, k=2)


def test_model_json_round_trip(tmp_path):
    m = two_component()
    path = tmp_path / "model.json"
    m.to_json(str(path))
    back = MixtureModel.from_json(str(path))
    assert np.array_equal(back.weights, m.weights)
    assert np.array_equal(back.means, m.means)
    assert np.array_equal(back.variances, m.variances)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sq_distances_equal_the_broadcast_sum(d):
    rng = np.random.default_rng(d)
    x = rng.normal(1e6, 1e3, size=(500, d))
    means = rng.normal(1e6, 1e3, size=(4, d))
    expected = ((x[None, :, :] - means[:, None, :]) ** 2).sum(axis=2)
    assert np.array_equal(_sq_distances(x, means), expected)


def test_sq_distances_hold_no_k_n_d_temporary():
    k, n, d = 4, 5000, 64
    rng = np.random.default_rng(0)
    x, means = rng.normal(size=(n, d)), rng.normal(size=(k, d))
    tracemalloc.start()
    try:
        sq = _sq_distances(x, means)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sq.shape == (k, n)
    # the result plus one (k, n) scratch array, far from k * n * d floats
    assert peak < 2.5 * k * n * 8
