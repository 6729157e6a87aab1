"""Super-resolution model, conditionals, Gibbs sweep, and image I/O."""

import math

import numpy as np
import pytest

import oracles
from rjpo.adapt import AdaptiveRjpoKernel, TargetRate, make_kernel
from rjpo.errors import ConfigurationError, NumericalBreakdownError
from rjpo.rng import PairedStream, RngStream
from rjpo.sampler import EXACT_EPSILON, KernelOutcome
from rjpo import superres as sr

SMOOTH_3X3 = np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 1.0]]) / 16.0


def small_model(dims=(16, 16), frames=2, factor=2, fwhm=1.0, snr_db=20.0):
    return sr.make_model(dims, frames=frames, decimation_factor=factor,
                         fwhm=fwhm, snr_db=snr_db)


def tiny_model(dims=(8, 8)):
    """Model with a hand 3 x 3 blur so dense mirrors stay cheap."""
    return sr.SuperResModel(
        hi_res_dims=dims, frames=2, decimation_factor=2, psf_kernel=SMOOTH_3X3
    )


# -------------------------------------------------------------- blur kernel

def test_psf_is_normalized_symmetric_odd_square():
    k = sr.laplace_psf(4.0)
    assert k.shape[0] == k.shape[1] and k.shape[0] % 2 == 1
    assert k.sum() == pytest.approx(1.0)
    assert np.array_equal(k, k.T)
    assert np.array_equal(k, np.flip(k))
    assert np.all(k > 0)


def test_psf_support_follows_the_tail_mass_rule():
    """The support half-width is the smallest h whose truncated separable
    mass (s_h / s_inf)^2 leaves less than tail_mass outside; checked against
    the closed-form partial sums of the geometric tails."""
    for fwhm, tail in ((4.0, 1e-4), (1.0, 1e-4), (2.5, 1e-3)):
        k = sr.laplace_psf(fwhm, tail_mass=tail)
        h = (k.shape[0] - 1) // 2
        q = math.exp(-2.0 * math.log(2.0) / fwhm)
        s_inf = (1.0 + q) / (1.0 - q)

        def mass(width):
            s = 1.0 + 2.0 * sum(q**i for i in range(1, width + 1))
            return (s / s_inf) ** 2

        assert 1.0 - mass(h) < tail
        assert h == 0 or 1.0 - mass(h - 1) >= tail


def test_psf_of_fwhm_4_spans_59_cells():
    assert sr.laplace_psf(4.0).shape == (59, 59)


def test_psf_halves_at_half_fwhm_offset():
    # fwhm even: the value fwhm/2 cells from center is half the peak.
    k = sr.laplace_psf(8.0)
    h = (k.shape[0] - 1) // 2
    assert k[h + 4, h] / k[h, h] == pytest.approx(0.5)


def test_psf_parameter_validation():
    with pytest.raises(ConfigurationError):
        sr.laplace_psf(0.0)
    with pytest.raises(ConfigurationError):
        sr.laplace_psf(math.inf)
    with pytest.raises(ConfigurationError):
        sr.laplace_psf(4.0, tail_mass=0.0)


# -------------------------------------------------------------------- model

def test_model_validation():
    with pytest.raises(ConfigurationError):
        small_model(dims=(0, 16))
    with pytest.raises(ConfigurationError):
        small_model(frames=0)
    with pytest.raises(ConfigurationError):
        small_model(factor=3)  # does not divide 16
    with pytest.raises(ConfigurationError):
        sr.SuperResModel((8, 8), 2, 2, psf_kernel=np.ones((3, 3)))  # sums to 9
    with pytest.raises(ConfigurationError):
        small_model(snr_db=math.nan)
    with pytest.raises(ConfigurationError):
        small_model(dims=(16, 16), fwhm=4.0)  # 59 x 59 blur exceeds the grid


def test_model_counts_and_frame_offsets():
    model = small_model(frames=4)
    assert model.pixel_count == 256
    assert model.frame_dims == (8, 8)
    assert model.data_count == 4 * 64
    assert [model.frame_offset(f) for f in range(4)] == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_forward_operator_is_adjoint_consistent():
    model = small_model()
    rng = np.random.default_rng(0)
    u = rng.standard_normal(model.pixel_count)
    v = rng.standard_normal(model.data_count)
    lhs = float(model.forward.apply(u) @ v)
    rhs = float(u @ model.forward.apply_transpose(v))
    assert lhs == pytest.approx(rhs, rel=1e-10)


# ---------------------------------------------------------------- synthesis

def test_synthesized_snr_matches_request():
    model = sr.make_model((64, 64), frames=2, decimation_factor=2,
                          fwhm=4.0, snr_db=20.0)
    truth = sr.phantom((64, 64))
    obs = sr.synthesize(model, truth, RngStream(1))
    clean = model.forward.apply(truth.ravel())
    noise = obs - clean
    measured = 10.0 * math.log10(float(clean @ clean) / float(noise @ noise))
    assert abs(measured - 20.0) < 0.5


def test_infinite_snr_returns_clean_frames():
    model = small_model(snr_db=math.inf)
    truth = sr.phantom((16, 16))
    obs = sr.synthesize(model, truth, RngStream(2))
    assert np.array_equal(obs, model.forward.apply(truth.ravel()))


def test_synthesize_validation():
    model = small_model()
    with pytest.raises(ConfigurationError):
        sr.synthesize(model, np.zeros((8, 8)), RngStream(3))
    with pytest.raises(ConfigurationError):
        sr.synthesize(model, np.zeros((16, 16)), RngStream(3))  # zero signal


# ------------------------------------------------------- gamma conditionals

def test_gamma_conditional_means():
    """Monte-Carlo means of both precision conditionals match the
    Gamma(shape, scale) means shape*scale computed from the state."""
    model = small_model()
    truth = sr.phantom((16, 16))
    obs = sr.synthesize(model, truth, RngStream(4))
    state = sr.GibbsState(x=truth.ravel(), gamma_y=1.0, gamma_x=1.0)
    stream = RngStream(5)

    resid = obs - model.forward.apply(state.x)
    expect_y = (1.0 + model.data_count / 2.0) * 2.0 / float(resid @ resid)
    draws = np.array([sr.sample_gamma_y(state, model, obs, stream) for _ in range(8000)])
    assert draws.mean() == pytest.approx(expect_y, rel=0.007)

    dx = model.laplacian.apply(state.x)
    expect_x = (1.0 + (model.pixel_count - 1) / 2.0) * 2.0 / float(dx @ dx)
    draws = np.array([sr.sample_gamma_x(state, model, stream) for _ in range(8000)])
    assert draws.mean() == pytest.approx(expect_x, rel=0.007)


def test_degenerate_states_abort():
    model = small_model()
    flat = sr.GibbsState(x=np.full(model.pixel_count, 0.7), gamma_y=1.0, gamma_x=1.0)
    with pytest.raises(NumericalBreakdownError):
        sr.sample_gamma_x(flat, model, RngStream(6))
    truth = sr.phantom((16, 16))
    exact = sr.GibbsState(x=truth.ravel(), gamma_y=1.0, gamma_x=1.0)
    clean = model.forward.apply(truth.ravel())
    with pytest.raises(NumericalBreakdownError):
        sr.sample_gamma_y(exact, model, clean, RngStream(6))


# ----------------------------------------------------- Gaussian conditional

def test_conditional_precision_matches_dense_assembly():
    model = tiny_model()
    obs = sr.synthesize(model, sr.phantom((8, 8)), RngStream(7))
    gy, gx = 3.0, 0.5
    target = sr.conditional_target(model, obs, gy, gx, dense_mirror=True)
    h_dense = oracles.dense_matrix_of(model.forward.apply, model.pixel_count)
    d_dense = oracles.dense_matrix_of(model.laplacian.apply, model.pixel_count)
    q_expected = gy * h_dense.T @ h_dense + gx * d_dense.T @ d_dense
    assert np.allclose(target.dense_q, q_expected, atol=1e-10)
    assert np.allclose(q_expected @ target.dense_mu,
                       gy * h_dense.T @ obs, atol=1e-8)


def test_conditional_target_validation():
    model = tiny_model()
    obs = sr.synthesize(model, sr.phantom((8, 8)), RngStream(8))
    with pytest.raises(ConfigurationError):
        sr.conditional_target(model, obs, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        sr.conditional_target(model, obs, 1.0, -2.0)


def test_dense_mirror_refused_beyond_oracle_size():
    model = sr.make_model((128, 128), frames=2, decimation_factor=2, fwhm=4.0)
    obs = np.ones(model.data_count)
    with pytest.raises(ConfigurationError):
        sr.conditional_target(model, obs, 1.0, 1.0, dense_mirror=True)


def test_exact_conditional_draws_match_cholesky_oracle():
    """Exact (cholesky_epo) draws of x | gamma, y are the right Gaussian
    (two-sample energy test against direct Cholesky draws from the dense
    conditional)."""
    model = tiny_model()
    obs = sr.synthesize(model, sr.phantom((8, 8)), RngStream(9))
    target = sr.conditional_target(model, obs, 2.0, 0.8, dense_mirror=True)
    state = sr.GibbsState(x=np.zeros(64), gamma_y=2.0, gamma_x=0.8)
    sampler = sr.make_x_sampler("cholesky_epo")
    stream = RngStream(10)
    draws = np.array([sampler(target, state.x, stream).next_sample
                      for _ in range(250)])
    oracle = oracles.cholesky_gaussian_draws(
        target.dense_q, target.dense_mu, 250, np.random.default_rng(11))
    p = oracles.energy_test_pvalue(draws, oracle, np.random.default_rng(12))
    assert p > 0.01


def test_adaptive_sampler_keeps_the_conditional_law():
    """A-RJPO is exactness-preserving despite ongoing epsilon adaptation.

    Final states of independent replicate chains (so the two-sample test
    sees i.i.d. points, which a thinned single chain would not give) match
    direct Cholesky draws from the dense conditional."""
    model = tiny_model(dims=(6, 6))
    obs = sr.synthesize(model, sr.phantom((6, 6)), RngStream(13))
    target = sr.conditional_target(model, obs, 2.0, 0.8, dense_mirror=True)
    streams = RngStream(14).spawn(180)
    kept = []
    for sub in streams:
        sampler = sr.make_x_sampler("arjpo", alpha_t=0.9, epsilon0=1e-2)
        paired = PairedStream(sub, sub.spawn(1)[0])  # as run_gibbs pairs its x stream
        x = np.zeros(36)
        for _ in range(60):
            x = sampler(target, x, paired).next_sample
        kept.append(x)
    oracle = oracles.cholesky_gaussian_draws(
        target.dense_q, target.dense_mu, len(kept), np.random.default_rng(15))
    p = oracles.energy_test_pvalue(np.array(kept), oracle, np.random.default_rng(16))
    assert p > 0.01


def test_x_sampler_factory():
    """superres.make_x_sampler is the one kernel registry, adapt.make_kernel."""
    assert sr.make_x_sampler is make_kernel
    for name in ("epo", "cholesky_epo"):
        assert not hasattr(make_kernel(name), "epsilon")  # exact: no threshold
    assert make_kernel("tpo", epsilon=1e-3).epsilon == 1e-3
    assert make_kernel("rjpo", epsilon=2e-3).epsilon == 2e-3
    arjpo = make_kernel("arjpo", alpha_t=0.95, epsilon0=1e-3)
    assert isinstance(arjpo, AdaptiveRjpoKernel)
    assert arjpo.controller.mode == TargetRate(0.95)
    assert arjpo.epsilon == pytest.approx(1e-3)
    with pytest.raises(ConfigurationError):
        make_kernel("gibbs")
    for name in ("tpo", "rjpo"):
        for bad in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                make_kernel(name, epsilon=bad)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            make_kernel("arjpo", epsilon0=bad)
    with pytest.raises(ConfigurationError):
        make_kernel("arjpo", alpha_t=1.0)


def test_gibbs_pairs_the_x_stream_for_every_kernel():
    """run_gibbs routes accept/reject uniforms to a side stream: the x
    kernel sees the x substream's normals and a spawned child's uniforms."""
    seen = []

    def recording_kernel(target, previous, stream):
        seen.append((stream.standard_normal_vector(3), stream.uniform()))
        return KernelOutcome(previous + 1.0, previous + 1.0, 1.0, True, 0, 0.0)

    model = small_model()
    obs = sr.synthesize(model, sr.phantom((16, 16)), RngStream(30))
    sr.run_gibbs(model, obs, 2, 0, recording_kernel, RngStream(31))
    x_stream = RngStream(31).spawn(2)[1]
    side = x_stream.spawn(1)[0]
    for normals, u in seen:
        assert np.array_equal(normals, x_stream.standard_normal_vector(3))
        assert u == side.uniform()


# -------------------------------------------------------------- Gibbs sweep

def test_gibbs_smoke_and_summary_shapes():
    model = small_model()
    truth = sr.phantom((16, 16))
    obs = sr.synthesize(model, truth, RngStream(17))
    summary = sr.run_gibbs(model, obs, 12, 2, sr.make_x_sampler("tpo", epsilon=1e-6),
                           RngStream(18))
    assert summary.records.shape == (12, 5)
    assert np.array_equal(summary.records[:, 0], np.arange(1, 13))
    assert summary.gamma_y_mean > 0 and summary.gamma_x_mean > 0
    assert np.isfinite(summary.records).all()
    assert summary.posterior_mean_image.shape == (16, 16)
    assert summary.x_std.shape == (256,)
    assert summary.wall_time > 0
    assert summary.peak_cg >= summary.mean_cg > 0


def test_gibbs_preconditions():
    model = small_model()
    obs = sr.synthesize(model, sr.phantom((16, 16)), RngStream(19))
    sampler = sr.make_x_sampler("tpo", epsilon=1e-6)
    with pytest.raises(ConfigurationError):
        sr.run_gibbs(model, obs[:-1], 10, 2, sampler, RngStream(20))
    with pytest.raises(ConfigurationError):
        sr.run_gibbs(model, obs, 0, 0, sampler, RngStream(20))
    with pytest.raises(ConfigurationError):
        sr.run_gibbs(model, obs, 10, 10, sampler, RngStream(20))


def test_gibbs_is_deterministic_given_a_seed():
    model = small_model()
    obs = sr.synthesize(model, sr.phantom((16, 16)), RngStream(21))
    runs = [sr.run_gibbs(model, obs, 10, 2, sr.make_x_sampler("tpo", epsilon=1e-6),
                         RngStream(22)) for _ in range(2)]
    assert np.array_equal(runs[0].records, runs[1].records)
    assert np.array_equal(runs[0].x_mean, runs[1].x_mean)


def test_same_seed_runs_are_paired_across_samplers():
    """The exact sampler and T-PO pushed to machine accuracy consume the
    same substreams, so their whole Gibbs records coincide except for the
    acceptance diagnostic."""
    model = small_model()
    obs = sr.synthesize(model, sr.phantom((16, 16)), RngStream(23))
    ref = sr.run_gibbs(model, obs, 10, 2, sr.make_x_sampler("cholesky_epo"),
                       RngStream(24))
    tpo = sr.run_gibbs(model, obs, 10, 2,
                       sr.make_x_sampler("tpo", epsilon=EXACT_EPSILON), RngStream(24))
    assert np.array_equal(ref.records[:, 1], tpo.records[:, 1])  # gamma_y
    assert np.array_equal(ref.records[:, 2], tpo.records[:, 2])  # gamma_x
    assert np.array_equal(ref.records[:, 4], tpo.records[:, 4])  # cg cost
    assert np.array_equal(ref.x_mean, tpo.x_mean)


def test_truncation_without_correction_corrupts_hyperparameters():
    """T-PO at a loose threshold drags the smoothness precision far off the
    exact-sampler value (the chain over-smooths, shrinking ||Dx||^2, which
    feeds back into ever larger gamma_x), while its own acceptance
    diagnostic still looks healthy.  Runs are seed-paired, so the deviation
    is bias, not noise."""
    model = small_model(dims=(32, 32), fwhm=2.0)
    truth = sr.phantom((32, 32))
    obs = sr.synthesize(model, truth, RngStream(28))
    ref = sr.run_gibbs(model, obs, 200, 40, sr.make_x_sampler("cholesky_epo"),
                       RngStream(29))
    loose = sr.run_gibbs(model, obs, 200, 40, sr.make_x_sampler("tpo", epsilon=3e-2),
                         RngStream(29))
    deviation = (loose.gamma_x_mean - ref.gamma_x_mean) / ref.gamma_x_mean
    assert deviation > 0.25
    assert loose.mean_acceptance > 0.5  # the diagnostic alone would not warn


def test_gibbs_wraps_breakdown_with_sweep_index():
    model = small_model(snr_db=math.inf)
    truth = sr.phantom((16, 16))
    obs = sr.synthesize(model, truth, RngStream(25))

    class FlatSampler:
        def __call__(self, target, previous, stream):
            flat = np.full(previous.size, 0.3)
            return KernelOutcome(flat, flat, 1.0, True, 0, 0.0)

    with pytest.raises(NumericalBreakdownError) as exc_info:
        sr.run_gibbs(model, obs, 10, 2, FlatSampler(), RngStream(26))
    assert exc_info.value.iteration == 2  # flat x trips the sweep after it


# ----------------------------------------------------------------- phantom

def test_phantom_properties():
    img = sr.phantom((32, 24))
    assert img.shape == (32, 24)
    assert img.min() >= 0.0 and img.max() <= 1.0
    assert img.std() > 0.05
    with pytest.raises(ConfigurationError):
        sr.phantom((1, 8))


def test_phantom_is_reproducible():
    assert np.array_equal(sr.phantom((16, 16)), sr.phantom((16, 16)))


# ---------------------------------------------------------------- image I/O

def test_pgm_round_trip_16_bit(tmp_path):
    rng = np.random.default_rng(27)
    image = np.round(rng.uniform(0, sr.PGM_MAX, (12, 9)))
    path = tmp_path / "img.pgm"
    sr.write_pgm(path, image)
    pixels, max_val = sr.read_pgm(path)
    assert max_val == sr.PGM_MAX
    assert pixels.shape == (12, 9)
    assert np.array_equal(pixels, image)


def test_pgm_round_trip_8_bit(tmp_path):
    image = np.arange(20.0).reshape(4, 5) * 10
    path = tmp_path / "img8.pgm"
    sr.write_pgm(path, image, max_val=255)
    pixels, max_val = sr.read_pgm(path)
    assert max_val == 255
    assert np.array_equal(pixels, image)


def test_pgm_reader_tolerates_comments(tmp_path):
    body = bytes([0, 50, 100, 250, 25, 75])
    raw = b"P5\n# written by hand\n3 2\n# depth next\n255\n" + body
    path = tmp_path / "commented.pgm"
    path.write_bytes(raw)
    pixels, max_val = sr.read_pgm(path)
    assert max_val == 255
    assert pixels.shape == (2, 3)
    assert np.array_equal(pixels.ravel(), np.array(list(body), dtype=float))


def test_pgm_reader_rejects_truncation(tmp_path):
    path = tmp_path / "trunc.pgm"
    sr.write_pgm(path, np.ones((8, 8)) * 100, max_val=255)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(OSError):
        sr.read_pgm(path)


def test_pgm_reader_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n3 2\n255\n0 1 2 3 4 5\n")
    with pytest.raises(OSError):
        sr.read_pgm(path)
