"""Output checks computed apart from the program, and their self-test.

Each checker returns a list of failure messages (empty when the output is
right).  The reference quantities come from plain numpy over the generator's
labels and values, never from a stored copy of an earlier run, so a change
that keeps the outputs correct keeps passing.  The sample checks use a
six-sigma tolerance; the balanced counts, compared one content at a time
by the hundred thousand, use Bernstein's bound at a false-alarm chance of
1e-12 per count.  Over every check of a full benchmark set the chance of a
false alarm stays below one in a thousand.
"""

from __future__ import annotations

import math

import numpy as np

Z = 6.0
ALPHA = 1e-12


def unmet(*pairs) -> list[str]:
    """Messages of the (condition, message) pairs whose condition is false."""
    return [msg for ok, msg in pairs if not ok]


def _integral(x: np.ndarray) -> bool:
    return bool(np.all(np.abs(x - np.round(x)) <= 1e-6 * np.maximum(1.0, np.abs(x))))


def content_groups(content: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order sorting records by exact content, and the start of each run.

    The order is kept as int32: it stays resident through a pass's timed
    calls, where it adds to the process's peak memory.
    """
    rows = np.asarray(content, dtype=np.float64).reshape(len(content), -1)
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    starts = np.flatnonzero(np.r_[True, (srt[1:] != srt[:-1]).any(axis=1)])
    return order.astype(np.int32), starts


def per_group(phat: np.ndarray, groups: tuple[np.ndarray, np.ndarray]):
    """One estimate per group, or None when a group's estimates differ."""
    order, starts = groups
    sorted_phat = phat[order]
    lo = np.minimum.reduceat(sorted_phat, starts)
    return lo if np.array_equal(lo, np.maximum.reduceat(sorted_phat, starts)) else None


def induced_masses(phat: np.ndarray, label_codes: np.ndarray) -> np.ndarray:
    """Entity distribution the sampler converges to, in plain numpy."""
    weights = phat.min() / phat
    masses = np.bincount(label_codes, weights=weights)
    return masses / masses.sum()


def check_rows(phat: np.ndarray, n: int) -> list[str]:
    return unmet((phat.shape == (n,), f"map has {phat.shape[0]} rows for {n} records"))


def count_tolerance(mean, var):
    """Deviation from ``mean`` that a binomial count exceeds with chance
    below ALPHA, by Bernstein's inequality for a sum of independent
    indicators: P(|X - mean| >= t) <= 2 exp(-t^2 / (2 (var + t / 3)))."""
    log_inv = math.log(2.0 / ALPHA)
    return log_inv / 3.0 + np.sqrt(log_inv**2 / 9.0 + 2.0 * log_inv * np.asarray(var))


def check_balanced_map(phat: np.ndarray, n: int, m: int, groups) -> list[str]:
    """Positive multiples of 1/m, constant within a record content, and
    counts that fit each content's true frequency.

    A content holding f of the n records is drawn X ~ Binomial(m, f/n)
    times, and its estimate is X/m; an unseen content gets the smallest
    seen count d instead of 0, so a content showing d may have X = 0.  Each
    content's count must lie within the Bernstein tolerance of m f/n, and
    so must the summed count of all contents of one size f (itself
    binomial), which catches estimates attached to the wrong contents even
    where single counts are too small to tell.  The estimates summed over
    distinct contents reach at least 1 (the seen counts sum to m).
    """
    bad = check_rows(phat, n)
    if bad:
        return bad
    per_content = per_group(phat, groups)
    if per_content is None:
        return ["balanced estimate varies within a content"]
    counts = per_content * m
    bad = unmet(
        (bool(np.all(counts >= 1 - 1e-9)) and _integral(counts),
         f"balanced estimates are not positive multiples of 1/{m}"),
        (float(per_content.sum()) >= 1.0 - 1e-9,
         "balanced estimates over distinct contents sum to less than 1"),
    )
    if bad:
        return bad
    counts = np.round(counts)
    _, starts = groups
    sizes = np.diff(np.r_[starts, n])
    q = sizes / n
    mean = m * q
    tol = count_tolerance(mean, mean * (1.0 - q))
    d = counts.min()
    maybe_unseen = counts == d
    far = (np.abs(counts - mean) > tol) & ~(maybe_unseen & (mean <= tol))
    # by size: the true summed count lies between the sure counts alone and
    # those plus d for every content that may be unseen
    size_values, by_size = np.unique(sizes, return_inverse=True)
    sure = np.bincount(by_size, weights=np.where(maybe_unseen, 0.0, counts))
    hi = sure + d * np.bincount(by_size, weights=maybe_unseen.astype(np.float64))
    q_size = size_values * np.bincount(by_size) / n
    mean_size = m * q_size
    tol_size = count_tolerance(mean_size, mean_size * (1.0 - q_size))
    far_size = (sure > mean_size + tol_size) | (hi < mean_size - tol_size)
    return unmet(
        (not far.any(), f"{int(far.sum())} contents' counts are far from m f/n"),
        (not far_size.any(),
         f"summed counts of {int(far_size.sum())} content sizes are far from m F/n"),
    )


def check_group_map(phat: np.ndarray, n: int, group_ids: np.ndarray) -> list[str]:
    """Each estimate is its group's size over n, so constant within a group."""
    bad = check_rows(phat, n)
    if bad:
        return bad
    sizes = np.bincount(group_ids)[group_ids]
    return unmet(
        (_integral(phat * n), f"LSH estimates are not multiples of 1/{n}"),
        (np.allclose(phat * n, sizes, rtol=1e-9, atol=0),
         "LSH estimate differs from its group size over n"),
    )


def check_induced(phat: np.ndarray, label_codes: np.ndarray, label_names,
                  program_mass) -> list[str]:
    """Program's induced entity distribution against numpy's, within 1e-12.

    ``program_mass`` maps an entity label to the program's induced mass
    (``exact_induced_distribution(...).mass``); ``label_names[c]`` is the
    label of code ``c``.
    """
    ref = induced_masses(phat, label_codes)
    got = np.array([program_mass.get(name, np.nan) for name in label_names])
    return unmet((bool(np.all(np.abs(got - ref) <= 1e-12)),
                   "exact_induced_distribution disagrees with the numpy reference"))


def check_uniform(phat: np.ndarray, label_codes: np.ndarray, max_tv: float) -> list[str]:
    """Induced entity distribution within ``max_tv`` of uniform."""
    ref = induced_masses(phat, label_codes)
    tv = 0.5 * float(np.abs(ref - 1.0 / ref.size).sum())
    return unmet((tv <= max_tv, f"TV from uniform {tv:.4f} > {max_tv}"))


def check_sample(phat: np.ndarray, values: np.ndarray, picked: np.ndarray,
                 picked_values: np.ndarray, p: int, trials: int) -> list[str]:
    """Sample size, acceptance rate and value mean against the map.

    Accepted draws are i.i.d. with weight floor/phat per record, so the
    trial count is negative binomial with success rate a = mean(floor/phat)
    and the sample mean is normal around the weighted record mean.
    """
    if picked.shape != (p,):
        return [f"sample holds {picked.shape[0]} records, {p} requested"]
    w = phat.min() / phat
    a = float(w.mean())
    expect = p / a
    tol = Z * math.sqrt(p * (1.0 - a)) / a + 1.0
    mu = float((w * values).sum() / w.sum())
    sigma = math.sqrt(float((w * (values - mu) ** 2).sum() / w.sum()))
    mean = float(picked_values.mean())
    return unmet(
        (bool(np.array_equal(values[picked], picked_values)),
         "sampled values differ from the records' values"),
        (abs(trials - expect) <= tol,
         f"{trials} trials for {p} accepts; expected {expect:.1f} +- {tol:.1f}"),
        (abs(mean - mu) <= Z * sigma / math.sqrt(p) + 1e-9 * abs(mu),
         f"sample mean {mean:.6g} vs weighted record mean {mu:.6g}"),
    )


def mixture_density(x: np.ndarray, weights, means, variances) -> np.ndarray:
    """Spherical Gaussian mixture density, written out term by term."""
    x = np.asarray(x, dtype=np.float64).reshape(len(x), -1)
    d = x.shape[1]
    out = np.zeros(len(x))
    for w, mu, var in zip(weights, means, variances):
        sq = ((x - np.asarray(mu)) ** 2).sum(axis=1)
        out += w * np.exp(-sq / (2.0 * var)) / (2.0 * math.pi * var) ** (d / 2.0)
    return out


def check_gmm_map(phat: np.ndarray, x: np.ndarray, model: dict) -> list[str]:
    bad = check_rows(phat, len(x))
    if bad:
        return bad
    ref = mixture_density(x, model["weights"], model["means"], model["variances"])
    return unmet((np.allclose(phat, ref, rtol=1e-9, atol=0),
                   "gmm map differs from the model's mixture density"))


def self_test() -> dict:
    """Feed the checkers maps that are wrong on purpose.

    On a small labelled table (one content per entity) the exact map, group
    size over n, must pass every checker, and every checker must flag each
    wrong map: uniform estimates, one entity's estimate scaled by 10, the
    exact estimates shifted to the next entity's records, and a map with
    its last row missing.  The balanced checker is given m = 10 n, so the
    exact map's counts are whole numbers large enough to judge.
    """
    rng = np.random.default_rng(20201023)
    sizes = rng.integers(1, 4, size=300)
    codes = np.repeat(np.arange(sizes.size), sizes)
    n = codes.size
    x = codes.astype(np.float64) * 10.0
    model = {"weights": [0.5, 0.5], "means": [[500.0], [2500.0]],
             "variances": [1e6, 1e6]}
    groups = content_groups(x)

    def wrong_maps(exact):
        shifted = np.repeat(np.roll(exact[np.r_[0, np.cumsum(sizes)[:-1]]], 1), sizes)
        return {"exact": exact, "uniform": np.full(n, 1.0 / n),
                "scaled_entity": np.where(codes == 0, 10.0 * exact, exact),
                "misaligned": shifted, "missing_row": exact[:-1]}

    def lsh(phat):
        return check_group_map(phat, n, codes) or check_uniform(phat, codes, 0.05)

    def balanced(phat):
        return check_balanced_map(phat, n, 10 * n, groups)

    def gmm(phat):
        return check_gmm_map(phat, x, model)

    exact = np.bincount(codes)[codes] / n
    density = mixture_density(x, **model)
    checkers = {"lsh": (lsh, exact), "balanced": (balanced, exact),
                "gmm": (gmm, density)}
    report = {}
    ok = True
    for checker, (fn, truth) in checkers.items():
        for name, phat in wrong_maps(truth).items():
            flagged = bool(fn(phat))
            report[f"{checker}/{name}"] = "flagged" if flagged else "passed"
            ok &= flagged == (name != "exact")
    report["ok"] = ok
    return report
