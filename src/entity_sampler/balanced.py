"""Frequency estimation for balanced datasets.

When every entity holds at least an eta fraction of the records, counting a
uniform with-replacement sample is enough: seen values get their sample
fraction as the estimate, unseen values get the smallest seen fraction.  A
planner sizes the sample so the induced sampling distribution lands within a
requested total variation of uniform.  Its one input is a known eta; with
eta unknown, the caller gives the sample size m itself.  Goodman's
distinct-count estimator over a without-replacement fingerprint sits
alongside; it is unbiased only while no value occurs more than m times.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dataset import Dataset, DatasetError, positive_count
from .rejection import DegenerateMapWarning, ProbabilityMap

__all__ = [
    "BalancedPlan",
    "FingerprintStats",
    "UnstableSumWarning",
    "estimate_probs_balanced",
    "goodman_estimate",
    "plan_sample_size",
]


class UnstableSumWarning(UserWarning):
    """Alternating-sum terms grew past the magnitude cap."""


# the largest alternating-sum term goodman_estimate trusts
_MAGNITUDE_CAP = 1e12


@dataclass(frozen=True)
class BalancedPlan:
    """Planned with-replacement sample size for target accuracy.

    ``m_raw`` keeps the un-rounded bound so scaling laws can be asserted
    exactly; ``m`` is the usable integer size.
    """

    epsilon: float
    delta: float
    eta: float
    a: float
    n_entities: int
    m_raw: float
    m: int


def plan_sample_size(
    epsilon: float,
    delta: float,
    eta: float,
    n_entities: int | None = None,
    a: float = 1.0,
) -> BalancedPlan:
    """Sample size meeting (epsilon, delta) on an eta-balanced dataset.

    m = (a / (eps^2 eta^2)) (log E log(log E / (eps eta)) + log(1/delta))
    with natural logs.  When the entity count is unknown the worst case
    E = ceil(1/eta) is used (balance caps the entity count).
    """
    if not (0 < epsilon < 1) or not (0 < delta < 1):
        raise ValueError("epsilon and delta must lie in (0, 1)")
    if not (0 < eta <= 1):
        raise ValueError("eta must lie in (0, 1]")
    if a <= 0:
        raise ValueError("slack constant a must be positive")
    n_ent = n_entities if n_entities is not None else math.ceil(1.0 / eta)
    if n_ent < 1:
        raise ValueError("entity count must be positive")
    log_e = math.log(n_ent)
    entropy_term = log_e * math.log(log_e / (epsilon * eta)) if log_e > 0 else 0.0
    m_raw = (a / (epsilon**2 * eta**2)) * (entropy_term + math.log(1.0 / delta))
    return BalancedPlan(
        epsilon=epsilon,
        delta=delta,
        eta=eta,
        a=a,
        n_entities=n_ent,
        m_raw=m_raw,
        m=max(1, math.ceil(m_raw)),
    )


def estimate_probs_balanced(data: Dataset, m: int, seed: int) -> ProbabilityMap:
    """Estimate per-record probabilities from a uniform sample of size m.

    The sample is drawn with replacement; only per-value counts matter, so
    they are drawn directly as one multinomial over the distinct record
    contents (identical in law, and cost stays proportional to the number
    of distinct values rather than the dataset).  The map holds one slot per
    distinct content; unseen values get the smallest seen estimate.  A
    non-integer ``m`` or one below 1 raises ValueError.
    """
    m = positive_count(m, "sample size m")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(m, data.dedup_freqs / data.n)
    seen = counts > 0
    phat = counts / m
    phat[~seen] = counts[seen].min() / m
    if np.count_nonzero(seen) == 1:
        warnings.warn(
            "sample saw a single distinct value; estimates are degenerate",
            DegenerateMapWarning,
            stacklevel=2,
        )
    return ProbabilityMap(by_code=phat)


@dataclass(frozen=True)
class FingerprintStats:
    """Fingerprint of a without-replacement sample.

    ``f[i]`` counts the distinct values seen exactly i times; ``r`` is the
    number of distinct values seen.  Consistency (sum f = r, sum i*f = m)
    is enforced.
    """

    m: int
    r: int
    f: Mapping[int, int]

    def __post_init__(self) -> None:
        if self.m <= 0:
            raise DatasetError("fingerprint sample size must be positive")
        if any(i <= 0 or c < 0 for i, c in self.f.items()):
            raise DatasetError("fingerprint keys must be positive, counts non-negative")
        if sum(self.f.values()) != self.r:
            raise DatasetError("fingerprint counts do not sum to r")
        if sum(i * c for i, c in self.f.items()) != self.m:
            raise DatasetError("fingerprint weighted counts do not sum to m")


def goodman_estimate(stats: FingerprintStats, n: int) -> float:
    """Unbiased estimate of the number of distinct values in the full table.

    E_hat = r + sum_i (-1)^(i+1) [(n-m+i-1)! (m-i)!] / [(n-m-1)! m!] f_i
    for a without-replacement sample of size m from n records.  Factorial
    ratios are evaluated through log-gamma; the alternating terms are summed
    exactly (math.fsum) in descending magnitude, and a term above
    ``_MAGNITUDE_CAP`` = 1e12 flags the result as numerically untrustworthy.
    Unbiasedness holds whenever no value occurs more than m times.
    """
    m = stats.m
    if not (1 <= m <= n - 1):
        raise ValueError("goodman estimate requires 1 <= m <= n - 1")
    terms = []
    for i, f_i in stats.f.items():
        if f_i == 0:
            continue
        log_w = (
            math.lgamma(n - m + i)
            - math.lgamma(n - m)
            + math.lgamma(m - i + 1)
            - math.lgamma(m + 1)
        )
        sign = 1.0 if (i + 1) % 2 == 0 else -1.0
        terms.append(sign * math.exp(log_w) * f_i)
    if terms and max(abs(t) for t in terms) > _MAGNITUDE_CAP:
        warnings.warn(
            "alternating correction terms exceed the magnitude cap; "
            "the distinct-count estimate is numerically unreliable",
            UnstableSumWarning,
            stacklevel=2,
        )
    terms.sort(key=abs, reverse=True)
    return stats.r + math.fsum(terms)

