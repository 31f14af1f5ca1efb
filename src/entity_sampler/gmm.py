"""Frequency estimation under a spherical Gaussian mixture prior.

When record vectors follow a well-separated spherical mixture, the mixture
density itself serves as the probability estimate: fit it by EM, evaluate
the density at every record, and let the rejection sampler flatten it.  A
planner converts accuracy targets into the EM sample size and iteration
count.  Exact copies share their density, so both the fit and the map work
per distinct content: EM weights each distinct row by its copy count, and
the map holds one estimate per content code.  All densities are handled in
log space, on (k, u) arrays: one row per component, one column per
distinct content.  The squared distances behind them come from
``clustering._sq_distance``, the package's one distance kernel.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .clustering import _kmeanspp_init, _sq_distance
from .dataset import (Dataset, DatasetError, _factorize_features, _first_records,
                      _json_fields)
from .rejection import ProbabilityMap

__all__ = [
    "CollapseError",
    "DensityUnderflowError",
    "EmResult",
    "GmmPlan",
    "MixtureModel",
    "SeparationWarning",
    "em_fit",
    "estimate_probs_gmm",
    "plan_gmm",
]

_LOG_FLOOR = -700.0  # exp underflows to zero a little below this
# EM attempts after the first, and the weight or variance below which a
# component has collapsed
_MAX_RESTARTS = 8
_COLLAPSE_EPS = 1e-8
# the planner's sample-size constant c' and iteration constant c
_C_PRIME = 1.0
_C_ITERS = 1.0


class CollapseError(RuntimeError):
    """Every EM restart collapsed a component."""


class DensityUnderflowError(ValueError):
    """A record's log density is too small to exponentiate."""


class SeparationWarning(UserWarning):
    """Fitted means are closer than the well-separated regime requires."""


def _sq_distances(x: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Squared distance from every mean to every point, shaped (k, n).

    ``clustering._sq_distance`` takes the differences directly, where the
    ||x||^2 - 2 x.mu + ||mu||^2 expansion would cancel catastrophically on
    values around 1e6, and holds two (k, n) arrays whatever d is.
    """
    return _sq_distance(x, means[:, None, :])


def _log_components(
    sq: np.ndarray, weights: np.ndarray, variances: np.ndarray, dim: int
) -> np.ndarray:
    """log w_j N(x_i; mu_j, var_j I) from squared distances, shaped (k, n)."""
    return (
        np.log(weights)[:, None]
        - 0.5 * sq / variances[:, None]
        - 0.5 * dim * np.log(2.0 * np.pi * variances)[:, None]
    )


def _normalize(log_comp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-record log normalizer and responsibilities of (k, n) log terms.

    One shifted ``exp`` serves both: the normalizer is max + log(sum), the
    responsibilities are the shifted terms over their sum.
    """
    top = log_comp.max(axis=0)
    e = np.exp(log_comp - top)
    total = e.sum(axis=0)
    return top + np.log(total), e / total


@dataclass(frozen=True)
class MixtureModel:
    """Spherical Gaussian mixture: weights, means, per-component variances."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        mu = np.asarray(self.means, dtype=np.float64)
        var = np.asarray(self.variances, dtype=np.float64)
        if mu.ndim != 2 or w.shape != (mu.shape[0],) or var.shape != (mu.shape[0],):
            raise DatasetError("inconsistent mixture shapes")
        if abs(w.sum() - 1.0) > 1e-9 or (w < 0).any():
            raise DatasetError("mixture weights must be a probability vector")
        if (var <= 0).any():
            raise DatasetError("variances must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", var)

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        """Log density at each row of x (shape (n, d) or (d,))."""
        pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
        d = self.dim
        if pts.shape[1] != d:
            raise DatasetError(f"points have dimension {pts.shape[1]}, model {d}")
        sq = _sq_distances(pts, self.means)
        return _normalize(_log_components(sq, self.weights, self.variances, d))[0]

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.logpdf(x))

    def check_separation(self, c: float = 1.0) -> bool:
        """Warn unless means are pairwise farther than the mixing scale.

        Threshold between components i, j:
        c * max(sigma_i, sigma_j) * sqrt(log(sigma_max/sigma_min / w_min)).
        """
        sig = np.sqrt(self.variances)
        rho = sig.max() / sig.min()
        w_min = self.weights.min()
        arg = max(math.log(rho / w_min), 0.0) if w_min > 0 else np.inf
        ok = True
        for i in range(self.k):
            for j in range(i + 1, self.k):
                thresh = c * max(sig[i], sig[j]) * math.sqrt(arg)
                if np.linalg.norm(self.means[i] - self.means[j]) < thresh:
                    ok = False
        if not ok:
            warnings.warn(
                "mixture components are not well separated; density-based "
                "estimates may not flatten the sample",
                SeparationWarning,
                stacklevel=2,
            )
        return ok

    def to_json(self, path: str) -> None:
        payload = {
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "MixtureModel":
        return cls(**_json_fields(path, cls, "model"))


@dataclass(frozen=True)
class EmResult:
    """Fitted model with its fitting trace."""

    model: MixtureModel
    loglik: tuple[float, ...]
    iterations: int
    converged: bool
    restarts_used: int


def _init_params(
    x: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k-means++ means on a subsample, uniform weights, pooled variance."""
    n, d = x.shape
    sub = x[rng.choice(n, size=min(n, 2048), replace=False)]
    means = _kmeanspp_init(sub, k, rng)
    weights = np.full(k, 1.0 / k)
    pooled = ((x - x.mean(axis=0)) ** 2).sum() / (n * d)
    variances = np.full(k, max(pooled, 1e-12))
    return weights, means, variances


def em_fit(
    data: Dataset | np.ndarray,
    k: int,
    seed: int,
    max_iter: int = 200,
    tol: float = 1e-6,
) -> EmResult:
    """Fit a spherical mixture by EM.

    The records are factorized once (a Dataset's cached ``dedup_codes``, or
    the rows of an array), and each iteration runs on the distinct rows, in
    first-appearance order, with their copy counts as weights: exact copies
    share their responsibilities, so this is the likelihood over every
    record.  Rows that are all distinct are fitted as given, weight one
    each.  Initialization draws on every record.  Stops after ``max_iter``
    iterations or once an iteration raises the mean per-record
    log-likelihood by less than ``tol``; the mean divides by the record
    count n, not the distinct count.  An affine rescaling of the data
    shifts that mean by a constant, so the rule stops at the same iteration
    at any scale.  A collapsing component (vanishing variance or weight)
    triggers a restart with fresh initialization, up to ``_MAX_RESTARTS`` =
    8, after which CollapseError is raised.  The returned trace of
    log-likelihoods is non-decreasing; its last entry belongs to the
    returned model.
    """
    x = data.features if isinstance(data, Dataset) else np.asarray(data, np.float64)
    if x is None:
        raise DatasetError("EM requires vector records")
    if x.ndim != 2 or len(x) < k:
        raise DatasetError("need at least k points of equal dimension")
    if k < 1:
        raise ValueError("k must be positive")
    n, d = x.shape
    codes = data.dedup_codes if isinstance(data, Dataset) else _factorize_features(x)
    counts = np.bincount(codes)
    rows = np.sort(_first_records(codes, counts.size))
    xu, w = x[rows], counts[codes[rows]].astype(np.float64)
    del codes, counts, rows
    root = np.random.SeedSequence(seed)
    for attempt, child in enumerate(root.spawn(_MAX_RESTARTS + 1)):
        rng = np.random.default_rng(child)
        weights, means, variances = _init_params(x, k, rng)
        sq = _sq_distances(xu, means)
        history: list[float] = []
        collapsed = False
        converged = False
        iterations = 0
        while True:
            # the E-step of the current parameters also scores them
            log_norm, resp = _normalize(_log_components(sq, weights, variances, d))
            history.append(float((log_norm * w).sum()))
            if len(history) > 1 and (history[-1] - history[-2]) / n < tol:
                converged = True
                break
            if iterations == max_iter:
                break
            resp *= w
            mass = resp.sum(axis=1)
            weights = mass / n
            if (weights < _COLLAPSE_EPS).any():
                collapsed = True
                break
            means = (resp @ xu) / mass[:, None]
            sq = _sq_distances(xu, means)
            variances = (resp * sq).sum(axis=1) / (mass * d)
            if (variances < _COLLAPSE_EPS).any():
                collapsed = True
                break
            iterations += 1
        if collapsed:
            continue
        model = MixtureModel(weights=weights, means=means, variances=variances)
        return EmResult(
            model=model,
            loglik=tuple(history),
            iterations=iterations,
            converged=converged,
            restarts_used=attempt,
        )
    raise CollapseError(
        f"all {_MAX_RESTARTS + 1} EM attempts collapsed a component (k={k})"
    )


def estimate_probs_gmm(data: Dataset, model: MixtureModel) -> ProbabilityMap:
    """Mixture density at each record as its probability estimate.

    The density is a function of the features, so it is evaluated once per
    distinct content, at the content's first record, and the map is held
    ``by_code`` over ``data.dedup_codes``.  The floor of the resulting map
    is the smallest density over the data.  Records whose log density
    falls below the exponentiation floor are a hard error: the dataset
    reaches far outside the fitted model.
    """
    if data.features is None:
        raise DatasetError("density estimates require vector records")
    first = _first_records(data.dedup_codes, data.dedup_freqs.size)
    logd = model.logpdf(data.features[first])
    if (logd < _LOG_FLOOR).any():
        worst = float(logd.min())
        raise DensityUnderflowError(
            f"log density {worst:.1f} below {_LOG_FLOOR}; "
            "records lie impossibly far from the fitted mixture"
        )
    return ProbabilityMap(by_code=np.exp(logd))


@dataclass(frozen=True)
class GmmPlan:
    """EM iteration and sample-size budget for target accuracy."""

    epsilon: float
    delta: float
    tau: float
    eta_min: float
    dim: int
    k: int
    iterations: int
    m_raw: float
    m: int


def plan_gmm(
    epsilon: float,
    delta: float,
    tau: float,
    eta_min: float,
    dim: int,
    k: int,
) -> GmmPlan:
    """Plan the EM budget.

    iterations T = ceil(c log(1/(tau epsilon))), and
    m = ceil(c' d^3 (log(k^2 T) + log(1/delta)) / (eta_min tau^2 eps^2)),
    with c = c' = 1.
    ``tau`` is the smallest mixture density over the data, ``eta_min`` the
    smallest component weight.
    """
    if not (0 < epsilon < 1) or not (0 < delta < 1):
        raise ValueError("epsilon and delta must lie in (0, 1)")
    if tau <= 0 or eta_min <= 0 or eta_min > 1:
        raise ValueError("tau must be positive and eta_min in (0, 1]")
    if dim < 1 or k < 1:
        raise ValueError("dim and k must be positive")
    iters = max(1, math.ceil(_C_ITERS * math.log(1.0 / (tau * epsilon))))
    m_raw = (
        _C_PRIME
        * dim**3
        * (math.log(k**2 * iters) + math.log(1.0 / delta))
        / (eta_min * tau**2 * epsilon**2)
    )
    return GmmPlan(
        epsilon=epsilon,
        delta=delta,
        tau=tau,
        eta_min=eta_min,
        dim=dim,
        k=k,
        iterations=iters,
        m_raw=m_raw,
        m=max(1, math.ceil(m_raw)),
    )
