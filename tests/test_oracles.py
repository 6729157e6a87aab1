"""The test oracles themselves, against simpler references."""

import numpy as np

import oracles


def _energy_test_pvalue_by_broadcast(xs, ys, rng, permutations=200):
    """The energy test as first written: every pairwise distance recomputed
    by broadcasting for each permutation."""

    def energy_distance(a_pts, b_pts):
        def mean_pdist(a, b):
            diffs = a[:, None, :] - b[None, :, :]
            return float(np.sqrt((diffs**2).sum(axis=2)).mean())

        return 2.0 * mean_pdist(a_pts, b_pts) - mean_pdist(a_pts, a_pts) - mean_pdist(b_pts, b_pts)

    observed = energy_distance(xs, ys)
    pooled = np.vstack([xs, ys])
    n = xs.shape[0]
    hits = 1
    for _ in range(permutations):
        perm = rng.permutation(pooled.shape[0])
        if energy_distance(pooled[perm[:n]], pooled[perm[n:]]) >= observed:
            hits += 1
    return hits / (permutations + 1)


def test_energy_test_pvalue_matches_the_broadcast_reference():
    """Indexing one pooled distance matrix gives the same p-value as
    recomputing the distances per permutation, on fixed samples and a fixed
    rng, for equal and unequal sample sizes and p-values across (0, 1]."""
    rng = np.random.default_rng(90)
    cases = [(rng.standard_normal((60, 64)), rng.standard_normal((60, 64))),
             (rng.standard_normal((60, 64)), rng.standard_normal((60, 64)) + 0.05),
             (rng.standard_normal((80, 5)), 1.2 * rng.standard_normal((130, 5))),
             (rng.standard_normal((60, 3)), rng.standard_normal((60, 3)) + 1.0)]
    pvalues = []
    for xs, ys in cases:
        expected = _energy_test_pvalue_by_broadcast(xs, ys, np.random.default_rng(91))
        assert oracles.energy_test_pvalue(xs, ys, np.random.default_rng(91)) == expected
        pvalues.append(expected)
    assert min(pvalues) == 1 / 201 and 0.05 < max(pvalues) < 1  # both tails are exercised

