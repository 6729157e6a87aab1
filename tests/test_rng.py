import numpy as np
import pytest
from scipy import stats

from rjpo.rng import RngStream, derive_seeds


def test_identical_seeds_replay_identical_sequences():
    a, b = RngStream(123), RngStream(123)
    assert np.array_equal(a.standard_normal_vector(50), b.standard_normal_vector(50))
    assert a.uniform() == b.uniform()
    assert a.gamma_draw(3.0, 2.0) == b.gamma_draw(3.0, 2.0)


def test_different_seeds_differ():
    assert not np.array_equal(
        RngStream(1).standard_normal_vector(20), RngStream(2).standard_normal_vector(20)
    )


def test_spawned_children_are_distinct_and_reproducible():
    kids = RngStream(7).spawn(4)
    seeds = [k.seed for k in kids]
    assert len(set(seeds)) == 4
    assert seeds == [k.seed for k in RngStream(7).spawn(4)]
    draws = [k.standard_normal_vector(10) for k in kids]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(draws[i], draws[j])


def test_derive_seeds_validation():
    with pytest.raises(ValueError):
        derive_seeds(1, 0)


def test_uniform_vector_bounds():
    u = RngStream(11).uniform_vector(1000)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_gamma_moments_large_shape():
    # precision conditionals use shapes ~ 1 + M/2; check mean/var there
    shape, scale = 1025.0, 2.0 / 3.1
    s = RngStream(5)
    draws = np.array([s.gamma_draw(shape, scale) for _ in range(20000)])
    assert draws.mean() == pytest.approx(shape * scale, rel=0.01)
    assert draws.var() == pytest.approx(shape * scale**2, rel=0.05)


def test_gamma_distribution_ks():
    s = RngStream(9)
    draws = np.array([s.gamma_draw(4.5, 0.7) for _ in range(4000)])
    _, p = stats.kstest(draws, "gamma", args=(4.5, 0.0, 0.7))
    assert p > 1e-3


def test_gamma_draw_validation():
    s = RngStream(1)
    with pytest.raises(ValueError):
        s.gamma_draw(0.0, 1.0)
    with pytest.raises(ValueError):
        s.gamma_draw(1.0, -2.0)


def test_normal_vector_validation():
    with pytest.raises(ValueError):
        RngStream(1).standard_normal_vector(0)
