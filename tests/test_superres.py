"""Super-resolution model, conditionals, Gibbs sweep, and image I/O."""

import math
import time

import numpy as np
import pytest

import oracles
from rjpo.adapt import AdaptiveRjpoKernel, TargetRate, make_kernel
from rjpo.errors import ConfigurationError, NumericalBreakdownError
from rjpo.rng import PairedStream, RngStream
from rjpo.cg import cg_solve
from rjpo.sampler import (
    EXACT_EPSILON, KernelOutcome, _exact_cg_solve, epo_step, perturb, resolve_burn_in,
)
import rjpo.sampler
from rjpo import superres as sr

SMOOTH_3X3 = np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 1.0]]) / 16.0


def small_model(dims=(16, 16), frames=2, factor=2, fwhm=1.0, snr_db=20.0):
    return sr.make_model(dims, frames=frames, decimation_factor=factor,
                         fwhm=fwhm, snr_db=snr_db)


def tiny_model(dims=(8, 8), frames=2):
    """Model with a hand 3 x 3 blur so dense mirrors stay cheap."""
    return sr.SuperResModel(
        hi_res_dims=dims, frames=frames, decimation_factor=2, psf_kernel=SMOOTH_3X3
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
    mass (s_h / s_inf)^2 leaves less than TAIL_MASS outside; checked against
    the closed-form partial sums of the geometric tails."""
    tail = sr.TAIL_MASS
    for fwhm in (4.0, 1.0):
        k = sr.laplace_psf(fwhm)
        h = (k.shape[0] - 1) // 2
        q = math.exp(-2.0 * math.log(2.0) / fwhm)
        s_inf = (1.0 + q) / (1.0 - q)

        def mass(width):
            s = 1.0 + 2.0 * sum(q**i for i in range(1, width + 1))
            return (s / s_inf) ** 2

        assert 1.0 - mass(h) < tail
        assert h == 0 or 1.0 - mass(h - 1) >= tail


def _loop_half_width(fwhm):
    """The half-width by summing the 1-D partial sums term by term until the
    separable mass outside [-h,h]^2 drops under TAIL_MASS."""
    q = math.exp(-2.0 * math.log(2.0) / fwhm)
    s_inf = (1.0 + q) / (1.0 - q)
    s_h, h = 1.0, 0
    while 1.0 - (s_h / s_inf) ** 2 >= sr.TAIL_MASS:
        h += 1
        s_h += 2.0 * q**h
    return h


def test_closed_form_half_width_matches_the_partial_sum_loop():
    grid = np.append(np.logspace(-1, 2, 600), 4.0)
    for fwhm in grid:
        assert sr.psf_half_width(fwhm) == _loop_half_width(fwhm), fwhm
    assert sr.psf_half_width(1000.0) == 7144


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
    for bad_snr in (math.nan, -math.inf):  # -inf would pass for noise-free, like +inf
        with pytest.raises(ConfigurationError):
            small_model(snr_db=bad_snr)
    with pytest.raises(ConfigurationError):
        small_model(dims=(16, 16), fwhm=4.0)  # 59 x 59 blur exceeds the grid


def test_model_refuses_a_non_finite_psf():
    """A NaN kernel, and an inf/-inf kernel whose sum is NaN, are refused:
    a NaN sum would pass a sum-to-1 test written as |sum - 1| > tol."""
    for kernel in (np.full((3, 3), np.nan), np.diag([math.inf, 1.0, -math.inf])):
        with pytest.raises(ConfigurationError, match="non-finite"):
            sr.SuperResModel((8, 8), 2, 2, kernel)


def test_oversized_psf_is_refused_before_it_is_built(monkeypatch):
    """FWHM 1e4 asks for a 142877 x 142877 kernel; make_model refuses it from
    the half-width alone."""
    def unbuilt(*args, **kwargs):
        raise AssertionError("laplace_psf called")

    monkeypatch.setattr(sr, "laplace_psf", unbuilt)
    start = time.perf_counter()
    with pytest.raises(ConfigurationError):
        sr.make_model((64, 64), fwhm=1e4)
    assert time.perf_counter() - start < 1.0


def test_model_counts_and_frame_offsets():
    model = small_model(frames=4)
    assert model.pixel_count == 256
    assert model.data_count == 4 * 64
    assert model.frame_offsets == ((0, 0), (1, 0), (0, 1), (1, 1))
    assert np.array_equal(model.counts, np.ones((16, 16)))
    assert model.gather(np.zeros(256)).size == model.data_count


def test_gather_and_scatter_select_sublattices():
    # each frame is one phase of the image: five frames at factor 2 take the
    # phases (0, 0), (1, 0), (0, 1), (1, 1) and (0, 0) again; with a delta
    # blur, H is the gather alone
    model = sr.SuperResModel((4, 4), 5, 2, psf_kernel=np.array([[1.0]]))
    image = np.arange(16.0).reshape(4, 4)
    assert np.array_equal(model.gather(image.ravel()),
                          [0, 2, 8, 10, 4, 6, 12, 14, 1, 3, 9, 11, 5, 7, 13, 15, 0, 2, 8, 10])
    assert np.allclose(oracles.forward_apply(model, image.ravel()), model.gather(image),
                       rtol=0, atol=1e-12)
    # scatter adds every frame onto its phase
    frames = np.arange(1.0, 21.0)
    back = model.scatter(frames)
    assert np.array_equal(back[0::2, 0::2], [[18, 20], [22, 24]])
    assert np.array_equal(back[1::2, 0::2], [[5, 6], [7, 8]])
    assert np.array_equal(back[0::2, 1::2], [[9, 10], [11, 12]])
    assert np.array_equal(back[1::2, 1::2], [[13, 14], [15, 16]])
    expected_counts = np.ones((4, 4))
    expected_counts[0::2, 0::2] = 2
    assert np.array_equal(model.counts, expected_counts)
    assert np.array_equal(model.scatter(model.gather(image)), expected_counts * image)
    # two frames leave the phases (0, 1) and (1, 1) unsampled
    two = sr.SuperResModel((4, 4), 2, 2, psf_kernel=np.array([[1.0]]))
    assert np.array_equal(two.counts[:, 1::2], np.zeros((4, 2)))
    assert np.array_equal(two.scatter(np.ones(8)), two.counts)


def test_forward_operator_is_adjoint_consistent():
    model = small_model()
    rng = np.random.default_rng(0)
    u = rng.standard_normal(model.pixel_count)
    v = rng.standard_normal(model.data_count)
    lhs = float(oracles.forward_apply(model, u) @ v)
    rhs = float(u @ oracles.forward_transpose(model, v))
    assert lhs == pytest.approx(rhs, rel=1e-10)


# ---------------------------------------------------------------- synthesis

def test_synthesized_snr_matches_request():
    model = sr.make_model((64, 64), frames=2, decimation_factor=2,
                          fwhm=4.0, snr_db=20.0)
    truth = sr.phantom((64, 64))
    obs = sr.synthesize(model, truth, RngStream(1))
    clean = oracles.forward_apply(model, truth.ravel())
    noise = obs - clean
    measured = 10.0 * math.log10(float(clean @ clean) / float(noise @ noise))
    assert abs(measured - 20.0) < 0.5


def test_infinite_snr_returns_clean_frames():
    model = small_model(snr_db=math.inf)
    truth = sr.phantom((16, 16))
    obs = sr.synthesize(model, truth, RngStream(2))
    assert np.array_equal(obs, oracles.forward_apply(model, truth.ravel()))


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
    x = truth.ravel()
    stream = RngStream(5)

    s = model.half_spectrum.enter(x)

    resid = obs - oracles.forward_apply(model, x)
    expect_y = (1.0 + model.data_count / 2.0) * 2.0 / float(resid @ resid)
    draws = np.array([sr.sample_gamma_y(s, model, obs, stream) for _ in range(8000)])
    assert draws.mean() == pytest.approx(expect_y, rel=0.007)

    dx = oracles.smooth_apply(model, x)
    expect_x = (1.0 + (model.pixel_count - 1) / 2.0) * 2.0 / float(dx @ dx)
    draws = np.array([sr.sample_gamma_x(s, model, stream) for _ in range(8000)])
    assert draws.mean() == pytest.approx(expect_x, rel=0.007)


def test_degenerate_states_abort():
    model = small_model()
    enter = model.half_spectrum.enter
    with pytest.raises(NumericalBreakdownError):
        sr.sample_gamma_x(enter(np.full(model.pixel_count, 0.7)), model, RngStream(6))
    # frames equal to H x as the chain computes it from the coordinates
    state = enter(sr.phantom((16, 16)).ravel())
    clean = model.gather(model.half_spectrum.blurred(state))
    with pytest.raises(NumericalBreakdownError):
        sr.sample_gamma_y(state, model, clean, RngStream(6))


# ----------------------------------------------------- Gaussian conditional

def test_conditional_precision_matches_dense_assembly():
    """The conditional target, seen from images through leave and enter,
    has the densely assembled Q, and its potential is gamma_y H^t y."""
    # five frames at factor 2 sample the phase (0, 0) twice
    for frames in (2, 5):
        model = tiny_model(frames=frames)
        basis = model.half_spectrum
        obs = sr.synthesize(model, sr.phantom((8, 8)), RngStream(7))
        gy, gx = 3.0, 0.5
        target = sr.conditional_target(model, basis.back_project(obs), gy, gx)
        dense_q = oracles.dense_matrix_of(
            lambda v: basis.leave(target.precision.apply(basis.enter(v))), model.pixel_count)
        dense_q = 0.5 * (dense_q + dense_q.T)
        dense_mu = np.linalg.solve(dense_q, basis.leave(target.potential))
        h_dense = oracles.dense_matrix_of(lambda v: oracles.forward_apply(model, v),
                                          model.pixel_count)
        d_dense = oracles.dense_matrix_of(lambda v: oracles.smooth_apply(model, v),
                                          model.pixel_count)
        q_expected = gy * h_dense.T @ h_dense + gx * d_dense.T @ d_dense
        assert np.allclose(dense_q, q_expected, atol=1e-10)
        assert np.allclose(q_expected @ dense_mu,
                           gy * h_dense.T @ obs, atol=1e-8)


def _dense_stack(model, gamma_y, gamma_x):
    """[sqrt(gamma_y) H; sqrt(gamma_x) D] built from the naive convolution
    and plain index selection, sharing no FFT code with the package."""
    n, dims, f = model.pixel_count, model.hi_res_dims, model.decimation_factor

    def conv(kernel):
        origin = ((kernel.shape[0] - 1) // 2, (kernel.shape[1] - 1) // 2)
        return oracles.dense_matrix_of(
            lambda e: oracles.naive_circular_convolve(e.reshape(dims), kernel, origin).ravel(),
            n)

    pixels = np.arange(n).reshape(dims)
    selected = np.concatenate([pixels[r::f, c::f].ravel()
                               for r, c in model.frame_offsets])
    h = conv(model.psf_kernel)[selected]
    return np.vstack([math.sqrt(gamma_y) * h,
                      math.sqrt(gamma_x) * conv(sr.LAPLACIAN_STENCIL)])


def test_conditional_factor_matches_dense_stack():
    """The image-space factor's apply, transpose and Gram, and the transpose
    of the factor in HalfSpectrum coordinates seen from images (leave F^t),
    against the dense stack F = [sqrt(gamma_y) H; sqrt(gamma_x) D]; its Gram
    is the weighted sum gamma_y H^t H + gamma_x D^t D to 1e-13 relative."""
    gy, gx = 3.0, 0.5
    cases = [(dims, frames, 2) for dims in ((8, 8), (16, 16)) for frames in range(1, 6)]
    for dims, frames, factor in cases + [((9, 15), 4, 3)]:  # one odd-column grid
        model = sr.SuperResModel(hi_res_dims=dims, frames=frames,
                                 decimation_factor=factor, psf_kernel=SMOOTH_3X3)
        factor_op = oracles.ConditionalFactor(model, gy, gx)
        spectral = sr.SpectralConditional(model.half_spectrum, gy, gx)
        stack = _dense_stack(model, gy, gx)
        n = model.pixel_count
        assert factor_op.out_dim == spectral.out_dim == stack.shape[0]
        spectral_transpose = oracles.dense_matrix_of(
            lambda w: model.half_spectrum.leave(spectral.apply_transpose(w)), stack.shape[0])
        for fused, dense in (
            (oracles.dense_matrix_of(factor_op.apply, n), stack),
            (oracles.dense_matrix_of(factor_op.apply_transpose, factor_op.out_dim), stack.T),
            (oracles.dense_matrix_of(factor_op.gram, n), stack.T @ stack),
            (spectral_transpose, stack.T),
        ):
            assert np.max(np.abs(fused - dense)) <= 1e-13 * np.max(np.abs(dense)), (dims, frames)


def test_conditional_factor_validation():
    model = tiny_model()
    for gy, gx in ((0.0, 1.0), (1.0, -2.0), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ConfigurationError):
            sr.SpectralConditional(model.half_spectrum, gy, gx)


def _counted_transforms(monkeypatch):
    """Patch numpy's 1-D and 2-D FFT entry points to count, per entry point
    in the returned dict, the images each call transforms: the product of
    the array's axes before its last two, 1 for a single image (or a
    vector)."""
    calls = {}

    def counted(name):
        transform = getattr(np.fft, name)

        def wrapper(a, *args, **kwargs):
            calls[name] = calls.get(name, 0) + math.prod(np.shape(a)[:-2])
            return transform(a, *args, **kwargs)

        return wrapper

    for name in ("rfft", "irfft", "fft", "ifft", "rfft2", "irfft2", "fft2", "ifft2",
                 "rfftn", "irfftn", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counted(name))
    return calls


def _images_by_direction(calls):
    """The images transformed forward and inverse (real to half spectrum and
    back), and complex 2-D transforms.  A 2-D real transform through 1-D
    calls is a real pass on the last axis and a complex pass on axis -2
    (superres._rfft2, _irfft2), so each rfft or irfft image owns one fft or
    ifft image; any other complex pass counts as complex."""
    def count(*names):
        return sum(calls.get(name, 0) for name in names)

    return {"forward": count("rfft", "rfft2", "rfftn"),
            "inverse": count("irfft", "irfft2", "irfftn"),
            "complex": (count("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
                        - count("rfft", "irfft"))}


def test_fused_conditional_transform_counts(monkeypatch):
    """A perturbation transforms 2 images forward and none inverse, with no
    complex 2-D transform.  In HalfSpectrum coordinates Q and its
    preconditioner take no transform, so neither does a CG solve, whatever
    its iteration count, plain or
    preconditioned: plain CG on 2 frames and CG preconditioned by P^-1 on 3
    frames take several iterations, CG preconditioned by Q^-1 on 2 frames
    takes one."""
    calls = _counted_transforms(monkeypatch)
    problems = []
    for frames in (2, 3):
        model = small_model(frames=frames)
        obs = sr.synthesize(model, sr.phantom((16, 16)), RngStream(8))
        target = sr.conditional_target(model, model.half_spectrum.back_project(obs), 2.0, 0.8)
        calls.clear()
        eta = perturb(target, RngStream(9))
        assert calls == {"rfft": 2, "fft": 2}
        assert _images_by_direction(calls) == {"forward": 2, "inverse": 0, "complex": 0}
        calls.clear()
        target.precision.factor.gram(eta)
        target.precision.factor.precondition(eta)
        assert calls == {}
        problems.append((target.precision, eta))
    (two, eta_two), (three, eta_three) = problems
    x0 = np.random.default_rng(10).standard_normal(eta_two.size)
    for precision, eta, one_iteration in ((two, eta_two, False),
                                          (three.preconditioned(), eta_three, False),
                                          (two.preconditioned(), eta_two, True)):
        for start in (x0, None):
            out = cg_solve(precision, eta, x0=start, epsilon=1e-8)
            assert out.iterations == 1 if one_iteration else out.iterations > 1
            assert calls == {}


@pytest.mark.parametrize("name", ["epo", "rjpo", "arjpo", "tpo"])
def test_gibbs_sweep_transform_counts(monkeypatch, name):
    """A 64 x 64 Gibbs sweep transforms 2 images forward for the
    perturbation and 1 inverse for the data residual H x, with no complex
    2-D transform; ||D x|| and every CG solve take none.  Outside the
    sweeps a run maps H^t y in (1 forward) and the posterior mean out (1
    inverse).  The difference of a 10- and a 5-sweep run gives the
    per-sweep count.  The model's coordinates are built once per model (one
    f x f fft2 for the alias table), before the runs."""
    per_sweep = {"forward": 2, "inverse": 1, "complex": 0}
    per_run = {"forward": 1, "inverse": 1, "complex": 0}
    model = sr.make_model((64, 64))
    obs = sr.synthesize(model, sr.phantom((64, 64)), RngStream(32))
    model.half_spectrum
    calls = _counted_transforms(monkeypatch)
    counts = []
    for sweeps in (5, 10):
        calls.clear()
        sr.run_gibbs(model, obs, sweeps, 0, make_kernel(name, epsilon=1e-2), RngStream(33))
        counts.append(_images_by_direction(calls))
    assert {k: (counts[1][k] - counts[0][k]) / 5 for k in per_sweep} == per_sweep
    assert {k: counts[0][k] - 5 * per_sweep[k] for k in per_sweep} == per_run


def test_only_the_exact_solve_preconditions():
    """tpo, rjpo and arjpo draws never build the preconditioner, a map
    cached on the conditional by its first use; the exact draw builds it."""
    model = small_model()
    obs = sr.synthesize(model, sr.phantom((16, 16)), RngStream(8))
    back = model.half_spectrum.back_project(obs)
    stream = RngStream(9)
    paired = PairedStream(stream, stream.spawn(1)[0])
    for name in ("tpo", "rjpo", "arjpo"):
        target = sr.conditional_target(model, back, 2.0, 0.8)
        make_kernel(name, epsilon=1e-6)(target, back, paired)
        assert "precondition" not in vars(target.precision.factor), name
    make_kernel("epo")(target, back, paired)
    assert "precondition" in vars(target.precision.factor)


def _coordinate_cases():
    """The 8 x 8, 16 x 16 and odd 9 x 15 (factor 3) grids, with 2, 3 and 4
    frames."""
    return [sr.SuperResModel(hi_res_dims=dims, frames=frames, decimation_factor=factor,
                             psf_kernel=SMOOTH_3X3)
            for dims, frames, factor in (((8, 8), 2, 2), ((16, 16), 3, 2), ((9, 15), 4, 3))]


def test_frame_maps_and_stacked_transpose_match_the_strided_references():
    """gather (np.take), scatter (np.bincount) and the one-call F^t of the
    stacked images give the bits of the strided-slice maps and of one rfft2
    per image: at 64 x 64 with 2 and 6 frames (6 frames sample some pixels
    twice), 30 x 30 with 5 frames and 15 x 21 with 4 at factor 3, and one
    frame at factor 1.  Either map refuses a vector of the wrong length."""
    rng = np.random.default_rng(71)
    for dims, frames, factor in (((64, 64), 2, 2), ((64, 64), 6, 2), ((30, 30), 5, 3),
                                 ((15, 21), 4, 3), ((33, 35), 1, 1)):
        model = sr.SuperResModel(dims, frames, factor, psf_kernel=SMOOTH_3X3)
        conditional = sr.SpectralConditional(model.half_spectrum, 3.7, 0.21)
        for _ in range(3):
            image = rng.standard_normal(dims)
            frames_data = rng.standard_normal(model.data_count)
            w = rng.standard_normal(conditional.out_dim)
            assert np.array_equal(model.gather(image), oracles.strided_gather(model, image))
            assert np.array_equal(model.scatter(frames_data),
                                  oracles.strided_scatter(model, frames_data))
            assert np.array_equal(conditional.apply_transpose(w),
                                  oracles.spectral_transpose(conditional, w)), dims
        for frame_map, size in ((model.gather, model.pixel_count),
                                (model.scatter, model.data_count)):
            with pytest.raises(ValueError):
                frame_map(np.zeros(size + 1))


def test_per_axis_transforms_match_numpy():
    """superres._rfft2 and _irfft2 give the bits of np.fft.rfft2 and irfft2,
    on even, odd and rectangular grids, one image or a stack."""
    rng = np.random.default_rng(72)
    for dims in ((8, 8), (15, 21), (33, 35), (7, 6), (64, 64)):
        images = rng.standard_normal((3,) + dims)
        spectra = sr._rfft2(images)
        assert np.array_equal(spectra, np.fft.rfft2(images))
        assert np.array_equal(sr._rfft2(images[1]), np.fft.rfft2(images[1]))
        assert np.array_equal(sr._irfft2(spectra, dims[1]), np.fft.irfft2(spectra, s=dims))
        assert np.array_equal(sr._irfft2(spectra[2], dims[1]), np.fft.irfft2(spectra[2], s=dims))


def test_half_spectrum_is_an_isometry():
    """enter and leave are inverse maps, and enter preserves inner products
    and norms of real images, to 1e-14."""
    rng = np.random.default_rng(70)
    for model in _coordinate_cases():
        basis = model.half_spectrum
        rows, cols = model.hi_res_dims
        assert basis.dim == 2 * rows * (cols // 2 + 1)
        for _ in range(5):
            x, y = rng.standard_normal((2, model.pixel_count))
            s, t = basis.enter(x), basis.enter(y)
            assert s.shape == (basis.dim,)
            scale = np.linalg.norm(x) * np.linalg.norm(y)
            assert abs(s @ t - x @ y) <= 1e-14 * scale, model.hi_res_dims
            assert abs(s @ s - x @ x) <= 1e-14 * (x @ x), model.hi_res_dims
            assert np.max(np.abs(basis.leave(s) - x)) <= 1e-14 * np.max(np.abs(x))


def test_spectral_gram_matches_the_dense_mirror():
    """Q in HalfSpectrum coordinates, seen from images (leave Q enter),
    matches the dense stack's F^t F, the dense mirror and the Gram on
    images to 1e-13 relative."""
    gy, gx = 3.0, 0.5
    for model in _coordinate_cases():
        n, basis = model.pixel_count, model.half_spectrum
        factor = oracles.ConditionalFactor(model, gy, gx)
        spectral = sr.SpectralConditional(basis, gy, gx)
        seen = oracles.dense_matrix_of(lambda v: basis.leave(spectral.gram(basis.enter(v))), n)
        stack = _dense_stack(model, gy, gx)
        for reference in (stack.T @ stack, oracles.image_conditional_precision(model, gy, gx),
                          oracles.dense_matrix_of(factor.gram, n)):
            scale = np.max(np.abs(reference))
            assert np.max(np.abs(seen - reference)) <= 1e-13 * scale, model.hi_res_dims


def _two_transform_gram(model, gamma_y, gamma_x, s):
    """Q in HalfSpectrum coordinates through the image of C:
    gamma_y conj(b) W rfft2(C irfft2((b / W) s)) + gamma_x |d|^2 s."""
    basis, transfer = model.half_spectrum, model.blur
    spectrum = s.view(complex).reshape(basis.shape)
    blurred = np.fft.irfft2(transfer * basis.unscale * spectrum, s=basis.dims)
    spectrum = (gamma_y * np.conj(transfer) * basis.scale
                * np.fft.rfft2(model.counts * blurred)
                + gamma_x * np.abs(model.laplacian) ** 2 * spectrum)
    return spectrum.view(float).ravel()


def _alias_cases():
    """8 x 8 and 16 x 16 with 1-5 frames at factor 2, 9 x 15 with 2 and 4
    frames at factor 3, 32 x 32 with 3 frames at factor 4."""
    cases = [(dims, frames, 2) for dims in ((8, 8), (16, 16)) for frames in range(1, 6)]
    cases += [((9, 15), 2, 3), ((9, 15), 4, 3), ((32, 32), 3, 4)]
    return [sr.SuperResModel(hi_res_dims=dims, frames=frames, decimation_factor=factor,
                             psf_kernel=SMOOTH_3X3)
            for dims, frames, factor in cases]


def test_alias_gram_matches_the_two_transform_gram():
    """On real images' half spectra, Q as P plus alias gathers matches the
    Gram through the image of C to 1e-13 relative, leave Q enter matches
    the dense mirror to 1e-13, and Q s stays a real image's half spectrum:
    enter(leave(Q s)) = Q s to 1e-13."""
    gy, gx = 3.0, 0.5
    rng = np.random.default_rng(90)
    for model in _alias_cases():
        case = (model.hi_res_dims, model.frames, model.decimation_factor)
        n, basis = model.pixel_count, model.half_spectrum
        dense_q = oracles.image_conditional_precision(model, gy, gx)
        spectral = sr.SpectralConditional(basis, gy, gx)
        for _ in range(5):
            s = basis.enter(rng.standard_normal(n))
            q_s = spectral.gram(s)
            reference = _two_transform_gram(model, gy, gx, s)
            assert np.max(np.abs(q_s - reference)) <= 1e-13 * np.max(np.abs(reference)), case
            closed = basis.enter(basis.leave(q_s))
            assert np.max(np.abs(closed - q_s)) <= 1e-13 * np.max(np.abs(q_s)), case
        seen = oracles.dense_matrix_of(lambda v: basis.leave(spectral.gram(basis.enter(v))), n)
        scale = np.max(np.abs(dense_q))
        assert np.max(np.abs(seen - dense_q)) <= 1e-13 * scale, case


def test_coordinates_are_built_by_the_first_sweep_not_with_the_model():
    """Building a model and synthesizing its data leave the HalfSpectrum
    coordinates unbuilt; the first Gibbs sweep builds them.  A benchmark's
    setup (make_model + synthesize) so never pays for the coordinate
    tables."""
    model = sr.make_model((64, 64))
    obs = sr.synthesize(model, sr.phantom((64, 64)), RngStream(32))
    assert "half_spectrum" not in vars(model)
    sr.run_gibbs(model, obs, 1, 0, make_kernel("arjpo"), RngStream(33))
    assert "half_spectrum" in vars(model)


def test_alias_term_counts():
    """Two frames at factor 2 sample every row of the even columns (C = 1
    there), one alias term; with every phase sampled once C = I and Q = P,
    none."""
    assert len(sr.make_model((64, 64)).half_spectrum.aliases) == 1
    for dims, factor in (((16, 16), 2), ((9, 15), 3), ((32, 32), 4)):
        model = sr.SuperResModel(hi_res_dims=dims, frames=factor**2,
                                 decimation_factor=factor, psf_kernel=SMOOTH_3X3)
        assert model.half_spectrum.aliases == [], dims


def test_spectral_cg_stops_with_the_spatial_solve():
    """On fixed RJPO states (an exact draw as previous, a fresh eta) CG in
    HalfSpectrum coordinates stops at the same iteration as CG on the same
    states mapped to images, with the image-space Gram, and their solutions
    agree to 1e-10 relative.  The exact draw is the dense mirror's solve on
    images, mapped in, so the states do not depend on the coordinates'
    solver.  The map is an isometry,
    so the two differ by rounding only, which CG amplifies: on other seeds
    the 8 x 8 solve at 1e-12 can stop one iteration earlier in the
    coordinates, and on 9 x 15 at 1e-4 a one-ulp change of eta moves CG on
    images by 1.5e-10."""

    class OnImages:
        def __init__(self, factor):
            self.factor = factor

        def apply(self, v):
            return self.factor.gram(v)

    for model in (tiny_model(), small_model(), _coordinate_cases()[2]):
        enter, leave = model.half_spectrum.enter, model.half_spectrum.leave
        obs = sr.synthesize(model, sr.phantom(model.hi_res_dims), RngStream(40))
        target = sr.conditional_target(model, model.half_spectrum.back_project(obs), 3.0, 0.5)
        mirrored = oracles.image_conditional_target(model, obs, 3.0, 0.5)
        previous = enter(mirrored.mirror_solve(leave(perturb(target, RngStream(50)))))
        eta = perturb(target, RngStream(60))
        on_images = OnImages(oracles.ConditionalFactor(model, 3.0, 0.5))
        for eps in (1e-2, 1e-4, 1e-12):
            spatial = cg_solve(on_images, leave(eta), x0=-leave(previous), epsilon=eps)
            spectral = cg_solve(target.precision, eta, x0=-previous, epsilon=eps)
            assert spectral.iterations == spatial.iterations, (model.hi_res_dims, eps)
            gap = np.linalg.norm(leave(spectral.solution) - spatial.solution)
            assert gap <= 1e-10 * np.linalg.norm(spatial.solution), (model.hi_res_dims, eps)


def test_exact_draw_residuals_are_spatial_residuals():
    """An exact draw's reported relative residual, computed in HalfSpectrum
    coordinates, agrees with ||eta - Q x|| / ||eta|| recomputed on images
    (eta and x mapped out, Q the image-space Gram) within 1e-13, and both
    meet 1e-12."""
    gy, gx = 323.6, 780.4
    models = [small_model(frames=2), _coordinate_cases()[2], sr.make_model((64, 64))]
    for seed, model in enumerate(models):
        leave = model.half_spectrum.leave
        obs = sr.synthesize(model, sr.phantom(model.hi_res_dims), RngStream(80 + seed))
        target = sr.conditional_target(model, model.half_spectrum.back_project(obs), gy, gx)
        image_gram = oracles.ConditionalFactor(model, gy, gx).gram
        for draw in range(10):
            out = epo_step(target, RngStream(100 * seed + draw))
            eta = leave(perturb(target, RngStream(100 * seed + draw)))
            recomputed = (np.linalg.norm(eta - image_gram(leave(out.next_sample)))
                          / np.linalg.norm(eta))
            assert abs(out.relative_residual - recomputed) <= 1e-13, model.hi_res_dims
            assert max(out.relative_residual, recomputed) <= EXACT_EPSILON, model.hi_res_dims


def test_conditional_target_validation():
    model = tiny_model()
    obs = sr.synthesize(model, sr.phantom((8, 8)), RngStream(8))
    back = model.half_spectrum.back_project(obs)
    with pytest.raises(ConfigurationError):
        sr.conditional_target(model, back, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        sr.conditional_target(model, back, 1.0, -2.0)
    with pytest.raises(ConfigurationError):  # observations in place of H^t y
        sr.conditional_target(model, obs, 1.0, 1.0)
    with pytest.raises(ConfigurationError):  # H^t y on images, not in coordinates
        sr.conditional_target(model, oracles.forward_transpose(model, obs), 1.0, 1.0)


def test_dense_mirror_refused_beyond_oracle_size():
    model = sr.make_model((128, 128), frames=2, decimation_factor=2, fwhm=4.0)
    with pytest.raises(ConfigurationError, match="dense mirror refused"):
        oracles.image_conditional_target(model, np.ones(model.data_count), 1.0, 1.0)


@pytest.mark.parametrize("dense_mirror", [True, False],
                         ids=["dense_mirror", "preconditioned_cg"])
def test_exact_conditional_draws_match_cholesky_oracle(dense_mirror):
    """Exact (cholesky_epo) draws of x | gamma, y are the right Gaussian
    (two-sample energy test against direct Cholesky draws from the dense
    conditional on images), whether they are solved on images through the
    dense mirror or, in HalfSpectrum coordinates with no mirror, by
    preconditioned CG and mapped out through leave."""
    model = tiny_model()
    obs = sr.synthesize(model, sr.phantom((8, 8)), RngStream(9))
    oracle_target = oracles.image_conditional_target(model, obs, 2.0, 0.8)
    if dense_mirror:
        target, leave = oracle_target, np.asarray
    else:
        basis = model.half_spectrum
        leave = basis.leave
        target = sr.conditional_target(model, basis.back_project(obs), 2.0, 0.8)
    sampler = make_kernel("cholesky_epo")
    stream = RngStream(10)
    draws = np.array([leave(sampler(target, np.zeros(target.dim), stream).next_sample)
                      for _ in range(250)])
    dense_q = oracles.dense_precision(oracle_target.precision)
    oracle = oracles.cholesky_gaussian_draws(
        dense_q, np.linalg.solve(dense_q, oracle_target.potential), 250,
        np.random.default_rng(11))
    p = oracles.energy_test_pvalue(draws, oracle, np.random.default_rng(12))
    assert p > 0.01


def test_preconditioned_exact_solve_matches_mirror_solve():
    """An exact draw without a mirror solves Q x = eta as the dense mirror
    on images does with eta mapped out, to 1e-11 relative once the draw is
    mapped out too: on two frames (one alias term) by the closed-form
    Q^-1 with no CG iteration, on five frames and at factor 3 (several
    alias terms) by CG preconditioned by P^-1 in a fraction of plain CG's
    iterations."""
    gy, gx = 323.6, 780.4  # posterior-typical precisions
    models = [small_model(frames=2), small_model(frames=5),
              sr.SuperResModel(hi_res_dims=(9, 15), frames=4, decimation_factor=3,
                               psf_kernel=SMOOTH_3X3)]
    for seed, model in enumerate(models):
        obs = sr.synthesize(model, sr.phantom(model.hi_res_dims), RngStream(40 + seed))
        basis = model.half_spectrum
        mirrored = oracles.image_conditional_target(model, obs, gy, gx)
        bare = sr.conditional_target(model, basis.back_project(obs), gy, gx)
        out = epo_step(bare, RngStream(50 + seed))
        eta = perturb(bare, RngStream(50 + seed))
        expected = mirrored.mirror_solve(basis.leave(eta))
        error = (np.linalg.norm(basis.leave(out.next_sample) - expected)
                 / np.linalg.norm(expected))
        assert error <= 1e-11, (model.hi_res_dims, model.frames, error)
        assert out.relative_residual <= EXACT_EPSILON
        if len(basis.aliases) == 1:
            assert out.cg_iterations == 0, model.frames
            continue
        plain = cg_solve(bare.precision, eta, epsilon=EXACT_EPSILON)
        assert 0 < out.cg_iterations < plain.iterations / 4


def test_preconditioner_inverts_the_circulant_mean():
    """Where C has no or several alias terms, the preconditioner, applied in
    HalfSpectrum coordinates, is P^-1: it inverts the Q of the same model
    with C replaced by its mean, which is the Q of full phase coverage with
    gamma_y scaled by mean(C) = frames / factor^2, to 1e-12 on vectors at
    16 x 16 with 1, 3 and 5 frames, and to 1e-13 as a dense matrix against
    that Q on the 16 x 16 and 9 x 15 grids.  (Two frames at factor 2 have
    one alias term, where the preconditioner is Q^-1 itself.)"""
    gy, gx = 323.6, 780.4

    def inverse_mean(model, v):
        basis = model.half_spectrum
        spectral = sr.SpectralConditional(basis, gy, gx)
        return basis.leave(spectral.precondition(basis.enter(v)))

    def full_coverage(model):
        factor = model.decimation_factor
        return sr.SuperResModel(hi_res_dims=model.hi_res_dims, frames=factor**2,
                                decimation_factor=factor, psf_kernel=SMOOTH_3X3)

    v = np.random.default_rng(62).standard_normal(256)
    for frames in (1, 3, 5):
        model = sr.SuperResModel(hi_res_dims=(16, 16), frames=frames, decimation_factor=2,
                                 psf_kernel=SMOOTH_3X3)
        assert len(model.half_spectrum.aliases) > 1, frames
        p_v = oracles.ConditionalFactor(full_coverage(model), gy * frames / 4, gx).gram(v)
        back = inverse_mean(model, p_v)
        assert np.linalg.norm(back - v) <= 1e-12 * np.linalg.norm(v), frames
    for model in _coordinate_cases()[1:]:
        assert len(model.half_spectrum.aliases) > 1, model.hi_res_dims
        n = model.pixel_count
        mean_count = model.frames / model.decimation_factor**2
        p = oracles.dense_matrix_of(
            oracles.ConditionalFactor(full_coverage(model), gy * mean_count, gx).gram, n)
        p_inv = oracles.dense_matrix_of(lambda e: inverse_mean(model, e), n)
        assert np.max(np.abs(p @ p_inv - np.eye(n))) <= 1e-13, model.hi_res_dims


def _one_alias_models():
    """8 x 8 with the hand 3 x 3 blur, 16 x 16 and 64 x 64 with Laplace
    blurs, each with 2 and 6 frames at factor 2: the configurations with
    one alias term."""
    models = []
    for frames in (2, 6):
        models += [tiny_model(frames=frames), small_model(frames=frames),
                   sr.make_model((64, 64), frames=frames)]
    return models


ONE_ALIAS_GAMMAS = ((320.0, 400.0), (11.6, 962.0), (1e4, 1.0), (1.0, 1e4))


def test_q_is_symmetric_positive_definite_off_real_images_at_factor_2():
    """At factor 2 the alias-sum Q is symmetric positive definite on all
    basis.dim HalfSpectrum coordinates, not only on real images' half
    spectra: as a dense matrix it is symmetric to 1e-14 of max |Q|, and its
    symmetric part has a Cholesky factor.  SMOOTH_3X3 blur at 8 x 8,
    16 x 16, 12 x 10 and 10 x 14 with 1 to 4 frames (3, 1, 3 and 0 alias
    terms), at precision ratios from 1e-4 to 1e8."""
    for dims in ((8, 8), (16, 16), (12, 10), (10, 14)):
        for frames in range(1, 5):
            model = sr.SuperResModel(hi_res_dims=dims, frames=frames, decimation_factor=2,
                                     psf_kernel=SMOOTH_3X3)
            basis = model.half_spectrum
            assert len(basis.aliases) == (3, 1, 3, 0)[frames - 1], (dims, frames)
            for gammas in ((3.0, 0.5), (1e4, 1.0), (1.0, 1e4), (1e6, 1e-2)):
                case = (dims, frames, gammas)
                gram = sr.SpectralConditional(basis, *gammas).gram
                q = oracles.dense_matrix_of(gram, basis.dim)
                assert np.max(np.abs(q - q.T)) <= 1e-14 * np.max(np.abs(q)), case
                np.linalg.cholesky(0.5 * (q + q.T))


def test_preconditioner_inverts_q_with_one_alias_term():
    """With one alias term the preconditioner is Q^-1: applied after Q it
    returns real images' half spectra to 1e-13, at precision ratios from
    1e-4 to 1e4."""
    rng = np.random.default_rng(63)
    for model in _one_alias_models():
        basis = model.half_spectrum
        assert len(basis.aliases) == 1, (model.hi_res_dims, model.frames)
        for gammas in ONE_ALIAS_GAMMAS:
            case = (model.hi_res_dims, model.frames, gammas)
            spectral = sr.SpectralConditional(basis, *gammas)
            for _ in range(3):
                s = basis.enter(rng.standard_normal(model.pixel_count))
                back = spectral.precondition(spectral.gram(s))
                assert np.max(np.abs(back - s)) <= 1e-13 * np.max(np.abs(s)), case


def test_preconditioner_is_the_dense_inverse_with_one_alias_term():
    """Seen from images (leave M^-1 enter), the one-alias-term
    preconditioner is the inverse of the oracle's dense Q at 8 x 8, with 2
    and 6 frames, to 1e-13."""
    gy, gx = 323.6, 780.4
    for frames in (2, 6):
        model = tiny_model(frames=frames)
        n, basis = model.pixel_count, model.half_spectrum
        dense_q = oracles.image_conditional_precision(model, gy, gx)
        spectral = sr.SpectralConditional(basis, gy, gx)
        q_inv = oracles.dense_matrix_of(
            lambda e: basis.leave(spectral.precondition(basis.enter(e))), n)
        assert np.max(np.abs(q_inv @ dense_q - np.eye(n))) <= 1e-13, frames
        assert np.max(np.abs(dense_q @ q_inv - np.eye(n))) <= 1e-13, frames


def _full_coverage_models():
    """C = I at factor 2 (16 x 16, 4 frames) and factor 3 (9 x 15, 9 frames)."""
    return [sr.SuperResModel(hi_res_dims=dims, frames=factor**2, decimation_factor=factor,
                             psf_kernel=SMOOTH_3X3)
            for dims, factor in (((16, 16), 2), ((9, 15), 3))]


@pytest.mark.parametrize("gammas", ONE_ALIAS_GAMMAS)
def test_exact_solve_with_one_alias_term_takes_one_iteration(gammas):
    """The 64 x 64 two-frame exact draw applies the closed-form Q^-1 once and
    runs no CG iteration, with a recomputed residual within EXACT_EPSILON,
    from posterior-typical precisions to ratios of 1e4 either way.  (The
    name is that of the one-iteration PCG draw this replaced.)"""
    model = sr.make_model((64, 64))
    obs = sr.synthesize(model, sr.phantom((64, 64)), RngStream(64))
    target = sr.conditional_target(model, model.half_spectrum.back_project(obs), *gammas)
    for seed in (65, 66):
        out = epo_step(target, RngStream(seed))
        assert out.cg_iterations == 0
        assert out.relative_residual <= EXACT_EPSILON


def test_full_phase_coverage_solves_in_one_iteration():
    """With frames = factor^2 every pixel is sampled once (C = I), so Q is
    the circulant P, whose inverse the exact draw applies with no CG
    iteration: the O(N log N) exact sampler.  (The name is that of the
    one-iteration PCG draw this replaced.)"""
    for model in _full_coverage_models():
        dims = model.hi_res_dims
        assert np.array_equal(model.counts, np.ones(dims))
        obs = sr.synthesize(model, sr.phantom(dims), RngStream(60))
        target = sr.conditional_target(model, model.half_spectrum.back_project(obs), 323.6,
                                       780.4)
        out = epo_step(target, RngStream(61))
        assert out.cg_iterations == 0
        assert out.relative_residual <= EXACT_EPSILON


@pytest.mark.parametrize("gammas", ONE_ALIAS_GAMMAS)
def test_closed_form_draw_matches_the_preconditioned_solve(gammas):
    """Where Q^-1 is known in closed form (the 64 x 64 two-frame model, and
    full phase coverage at factors 2 and 3), the exact draw that applies it
    is the draw of the CG solve preconditioned by it from the same eta
    (_exact_cg_solve, one iteration) to 1e-14 relative."""
    for model in [sr.make_model((64, 64))] + _full_coverage_models():
        case = (model.hi_res_dims, model.frames, gammas)
        basis = model.half_spectrum
        obs = sr.synthesize(model, sr.phantom(model.hi_res_dims), RngStream(71))
        target = sr.conditional_target(model, basis.back_project(obs), *gammas)
        assert target.precision.factor.inverse is not None, case
        for seed in (72, 73, 74):
            out = epo_step(target, RngStream(seed))
            assert out.cg_iterations == 0, case
            solution, _, iterations = _exact_cg_solve(target.precision,
                                                      perturb(target, RngStream(seed)))
            assert iterations == 1, case
            error = np.linalg.norm(out.next_sample - solution) / np.linalg.norm(solution)
            assert error <= 1e-14, (case, error)


def test_closed_form_draw_that_misses_its_residual_continues_in_cg(monkeypatch):
    """A closed-form draw whose recomputed residual misses EXACT_EPSILON
    (here Q^-1 scaled by 1 + 1e-9) is the start of the preconditioned CG
    solve, and the draw reports that solve's iterations and residual; it
    lands on the unscaled draw to 1e-14 relative."""
    model = sr.make_model((64, 64))
    basis = model.half_spectrum
    obs = sr.synthesize(model, sr.phantom((64, 64)), RngStream(75))
    target = sr.conditional_target(model, basis.back_project(obs), 11.6, 962.0)
    exact = epo_step(target, RngStream(76))
    inverse = sr.SpectralConditional.inverse.fget
    monkeypatch.setattr(sr.SpectralConditional, "inverse",
                        property(lambda self: lambda s: inverse(self)(s) * (1.0 + 1e-9)))
    out = epo_step(target, RngStream(76))
    eta = perturb(target, RngStream(76))
    start = target.precision.factor.inverse(eta)
    eta_norm = np.linalg.norm(eta)
    assert np.linalg.norm(eta - target.precision.apply(start)) > EXACT_EPSILON * eta_norm
    solution, residual, iterations = _exact_cg_solve(target.precision, eta, start)
    assert out.cg_iterations == iterations >= 1
    assert out.relative_residual == residual <= EXACT_EPSILON
    assert np.array_equal(out.next_sample, solution)
    error = np.linalg.norm(out.next_sample - exact.next_sample) / np.linalg.norm(exact.next_sample)
    assert error <= 1e-14, error


def test_exact_draw_with_several_alias_terms_runs_cg_preconditioned_by_p(monkeypatch):
    """Three frames at factor 2 have three alias terms, so the conditional
    knows no Q^-1 and the exact draw runs CG from zero preconditioned by
    P^-1, the factor's ``precondition``, in several iterations."""
    model = small_model(frames=3)
    basis = model.half_spectrum
    assert len(basis.aliases) == 3
    obs = sr.synthesize(model, sr.phantom((16, 16)), RngStream(77))
    target = sr.conditional_target(model, basis.back_project(obs), 323.6, 780.4)
    factor = target.precision.factor
    assert factor.inverse is None
    solves = []

    def recorded(q, b, x0=None, epsilon=0.0, max_iters=None):
        solves.append((q.precondition, x0, epsilon))
        return cg_solve(q, b, x0=x0, epsilon=epsilon, max_iters=max_iters)

    monkeypatch.setattr(rjpo.sampler, "cg_solve", recorded)
    out = epo_step(target, RngStream(78))
    assert solves[0] == (factor.precondition, None, EXACT_EPSILON)
    assert np.array_equal(factor.precondition.diagonal, 1.0 / factor.gram.diagonal)
    assert not factor.precondition.aliases
    assert out.cg_iterations > 1 and out.relative_residual <= EXACT_EPSILON


def test_rotation_diagonalises_q_with_one_alias_term():
    """With one alias term Q's rotation is orthogonal, U^t U = I and the
    leave map is the transpose of the enter map, to 1e-14; its eigenvalues
    are positive, and each pair's lambda+ lambda- is the conditional's
    block determinant to 1e-13 relative (at a lone bin, the real
    coordinate's eigenvalue times the imaginary one's); and leave U^t Lambda
    U enter is the oracle's image-space Q to 1e-13 relative, at 8 x 8,
    16 x 16 and 64 x 64 with 2 and 6 frames and precision ratios from 1e-4
    to 1e4.  Up to 16 x 16 the maps are compared as dense matrices, against
    image_conditional_precision; at 64 x 64 (a dense image-space Q takes
    134 MB) on 8 random vectors, against the Gram that matrix is built
    from.  Each grid has two lone bins, which read themselves conjugated:
    (0, K/4) and (R/2, K/4)."""
    rng = np.random.default_rng(67)
    for model in _one_alias_models():
        basis, n = model.half_spectrum, model.pixel_count
        lone = ~(basis.pair_first | basis.pair_partner)
        assert lone.sum() == 2, model.hi_res_dims
        [((source, _), _)] = basis.aliases
        for gammas in ONE_ALIAS_GAMMAS:
            case = (model.hi_res_dims, model.frames, gammas)
            conditional = sr.SpectralConditional(basis, *gammas)
            rotation = conditional.rotation
            assert np.all(rotation.eigenvalues > 0), case
            # coordinate 0 of a first member holds lambda+ and coordinate 1 of
            # its partner lambda-, and the reverse; a lone bin is its own partner
            eigenvalues = rotation.eigenvalues.reshape(basis.shape + (2,))
            product = eigenvalues[..., 0] * np.take(eigenvalues[..., 1], source)
            assert np.max(np.abs(product / conditional.determinant - 1)) <= 1e-13, case
            # rows r and R - r of columns 0 and K/2 hold one frequency twice
            # and take bitwise-equal eigenvalue pairs
            rows = model.hi_res_dims[0]
            upper = np.arange(1, (rows + 1) // 2)
            assert np.array_equal(eigenvalues[np.ix_(upper, [0, -1])],
                                  eigenvalues[np.ix_(rows - upper, [0, -1])]), case

            def q_images(x):
                lambda_u = rotation.apply(rotation.enter(basis.enter(x)))
                return basis.leave(rotation.leave(lambda_u))

            if n <= 256:
                u = oracles.dense_matrix_of(rotation.enter, basis.dim)
                u_t = oracles.dense_matrix_of(rotation.leave, basis.dim)
                assert np.max(np.abs(u_t @ u - np.eye(basis.dim))) <= 1e-14, case
                assert np.max(np.abs(u_t - u.T)) <= 1e-14, case
                dense_q = oracles.image_conditional_precision(model, *gammas)
                seen = oracles.dense_matrix_of(q_images, n)
                assert np.max(np.abs(seen - dense_q)) <= 1e-13 * np.max(np.abs(dense_q)), case
                continue
            image_gram = oracles.ConditionalFactor(model, *gammas).gram
            for _ in range(8):
                v, w = rng.standard_normal(basis.dim), rng.standard_normal(basis.dim)
                assert np.max(np.abs(rotation.leave(rotation.enter(v)) - v)) <= 1e-14 * np.max(
                    np.abs(v)), case
                assert abs(rotation.enter(v) @ w - v @ rotation.leave(w)) <= 1e-14 * (
                    np.linalg.norm(v) * np.linalg.norm(w)), case
                x = rng.standard_normal(n)
                reference = image_gram(x)
                assert np.max(np.abs(q_images(x) - reference)) <= 1e-13 * np.max(
                    np.abs(reference)), case


@pytest.mark.parametrize("gammas", ONE_ALIAS_GAMMAS)
def test_rotated_truncated_solve_reports_its_recomputed_residual(gammas):
    """A plain solve of a one-alias-term Q runs in Q's eigenbasis, and the
    relative residual it reports, from U^t (U b - Lambda U x), is
    ||eta - Q x|| / ||eta|| recomputed with Q itself to 1e-13, at eps 1e-2
    and 1e-4, from zero and from -previous (previous an exact draw).
    Recomputed on images (eta and x mapped out, Q the image-space Gram) it
    differs by no more than the share of Q x that leave drops, the part of x
    that rounding moved off real images' half spectra, plus 1e-13: long
    solves at extreme precision ratios drift that way, unrotated as well.
    The exact draw, preconditioned, never builds the rotation."""
    for model in _one_alias_models():
        case = (model.hi_res_dims, model.frames, gammas)
        basis = model.half_spectrum
        obs = sr.synthesize(model, sr.phantom(model.hi_res_dims), RngStream(68))
        target = sr.conditional_target(model, basis.back_project(obs), *gammas)
        previous = epo_step(target, RngStream(69)).next_sample
        assert "rotation" not in vars(target.precision.factor), case
        image_gram = oracles.ConditionalFactor(model, *gammas).gram
        eta = perturb(target, RngStream(70))
        eta_norm = np.linalg.norm(eta)
        for eps in (1e-2, 1e-4):
            for x0 in (None, -previous):
                out = cg_solve(target.precision, eta, x0=x0, epsilon=eps)
                assert out.converged and out.iterations >= 1, case
                x = out.solution
                recomputed = np.linalg.norm(eta - target.precision.factor.gram(x)) / eta_norm
                assert abs(out.relative_residual - recomputed) <= 1e-13, (case, eps)
                on_images = (np.linalg.norm(basis.leave(eta) - image_gram(basis.leave(x)))
                             / np.linalg.norm(basis.leave(eta)))
                dropped = target.precision.factor.gram(x - basis.enter(basis.leave(x)))
                assert abs(out.relative_residual - on_images) <= (
                    np.linalg.norm(dropped) / eta_norm + 1e-13), (case, eps)
        assert "rotation" in vars(target.precision.factor), case


def test_no_rotation_without_exactly_one_alias_term():
    """Models with no alias term (every phase sampled once) or several (1, 3
    or 5 frames at factor 2, factor 3) offer no rotation, so their plain
    solves apply Q itself."""
    models = [sr.SuperResModel(hi_res_dims=dims, frames=frames, decimation_factor=factor,
                               psf_kernel=SMOOTH_3X3)
              for dims, frames, factor in (((16, 16), 4, 2), ((9, 15), 9, 3), ((16, 16), 1, 2),
                                           ((16, 16), 3, 2), ((8, 8), 5, 2), ((9, 15), 2, 3))]
    for model in models:
        assert len(model.half_spectrum.aliases) != 1, model.hi_res_dims
        target = sr.conditional_target(model, np.zeros(model.half_spectrum.dim), 3.0, 0.5)
        assert target.precision.rotation is None, (model.hi_res_dims, model.frames)


def test_adaptive_sampler_keeps_the_conditional_law():
    """A-RJPO is exactness-preserving despite ongoing epsilon adaptation.

    Final states of independent replicate chains (so the two-sample test
    sees i.i.d. points, which a thinned single chain would not give), run in
    HalfSpectrum coordinates and mapped out through leave, match direct
    Cholesky draws from the dense conditional on images."""
    model = tiny_model(dims=(6, 6))
    basis = model.half_spectrum
    obs = sr.synthesize(model, sr.phantom((6, 6)), RngStream(13))
    target = sr.conditional_target(model, basis.back_project(obs), 2.0, 0.8)
    oracle_target = oracles.image_conditional_target(model, obs, 2.0, 0.8)
    streams = RngStream(14).spawn(180)
    kept = []
    for sub in streams:
        sampler = make_kernel("arjpo", alpha_t=0.9, epsilon0=1e-2)
        paired = PairedStream(sub, sub.spawn(1)[0])  # as run_gibbs pairs its x stream
        x = np.zeros(target.dim)
        for _ in range(60):
            x = sampler(target, x, paired).next_sample
        kept.append(basis.leave(x))
    dense_q = oracles.dense_precision(oracle_target.precision)
    oracle = oracles.cholesky_gaussian_draws(
        dense_q, np.linalg.solve(dense_q, oracle_target.potential), len(kept),
        np.random.default_rng(15))
    p = oracles.energy_test_pvalue(np.array(kept), oracle, np.random.default_rng(16))
    assert p > 0.01


def test_x_sampler_factory():
    """superres.make_x_sampler is the one kernel registry, adapt.make_kernel."""
    assert sr.make_x_sampler is make_kernel
    for name in ("epo", "cholesky_epo"):
        assert not hasattr(make_kernel(name), "epsilon")  # exact: no threshold
    arjpo = make_kernel("arjpo", alpha_t=0.95, epsilon0=1e-3)
    assert isinstance(arjpo, AdaptiveRjpoKernel)
    assert arjpo.controller.mode == TargetRate(0.95)
    assert arjpo.epsilon == pytest.approx(1e-3)
    with pytest.raises(ConfigurationError):
        make_kernel("gibbs")
    for name in ("epo", "cholesky_epo", "tpo", "rjpo", "arjpo"):
        for bad in (0.0, -1e-3, 1.0, 1.5, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match=f"{name} epsilon must lie in"):
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
    summary = sr.run_gibbs(model, obs, 12, 2, make_kernel("tpo", epsilon=1e-6),
                           RngStream(18))
    assert summary.records.shape == (12, 5)
    assert np.array_equal(summary.records[:, 0], np.arange(1, 13))
    kept = summary.records[2:]
    assert kept[:, 1].mean() > 0 and kept[:, 2].mean() > 0
    assert np.isfinite(summary.records).all()
    assert summary.x_mean.shape == (16, 16)
    assert summary.wall_time > 0
    assert kept[:, 4].max() >= kept[:, 4].mean() > 0


def _image_space_gibbs(model, observations, sweeps, stream):
    """The Gibbs chain with its state on images: the gamma conditionals read
    H x and D x on images, the perturbation is drawn through the image-space
    factor, and only the exact solve crosses into HalfSpectrum coordinates
    and back.  Returns the (gamma_y, gamma_x) records and the final image."""
    basis = model.half_spectrum
    back = oracles.forward_transpose(model, observations)
    x = back.copy()
    gamma_stream, x_stream = stream.spawn(2)
    x_stream = PairedStream(x_stream, x_stream.spawn(1)[0])
    records = []
    for _ in range(sweeps):
        residual = observations - oracles.forward_apply(model, x)
        gamma_y = gamma_stream.gamma_draw(1.0 + model.data_count / 2.0,
                                          2.0 / float(residual @ residual))
        dx = oracles.smooth_apply(model, x)
        gamma_x = gamma_stream.gamma_draw(1.0 + (model.pixel_count - 1) / 2.0,
                                          2.0 / float(dx @ dx))
        factor = oracles.ConditionalFactor(model, gamma_y, gamma_x)
        eta = gamma_y * back + factor.apply_transpose(
            x_stream.standard_normal_vector(factor.out_dim))
        spectral = sr.conditional_target(model, basis.enter(back), gamma_y, gamma_x)
        solution, _, _ = _exact_cg_solve(spectral.precision, basis.enter(eta))
        x = basis.leave(solution)
        records.append((gamma_y, gamma_x))
    return np.array(records), x


def test_gibbs_sweep_matches_the_image_space_sweep():
    """A 16 x 16 exact Gibbs chain in HalfSpectrum coordinates reproduces
    the chain whose state lives on images (same streams, same solver) to
    1e-13 relative in every gamma and in the final image: the coordinates
    change only the rounding."""
    model = small_model()
    obs = sr.synthesize(model, sr.phantom((16, 16)), RngStream(34))
    states = []

    def kernel(target, previous, stream):
        outcome = make_kernel("epo")(target, previous, stream)
        states.append(outcome.next_sample)
        return outcome

    summary = sr.run_gibbs(model, obs, 8, 7, kernel, RngStream(35))
    records, x = _image_space_gibbs(model, obs, 8, RngStream(35))
    assert np.max(np.abs(summary.records[:, 1:3] / records - 1.0)) <= 1e-13
    final = model.half_spectrum.leave(states[-1])
    assert np.max(np.abs(final - x)) <= 1e-13 * np.max(np.abs(x))
    assert np.max(np.abs(summary.x_mean.ravel() - x)) <= 1e-13 * np.max(np.abs(x))


def test_long_chain_stays_on_real_images():
    """After each of 500 arjpo sweeps at 16 x 16, and of 200 at 64 x 64 with
    two frames, the state is still a real image's half spectrum,
    enter(leave(s)) = s to 1e-12 relative: rounding does not drift it off
    the subspace where the alias Gram is Q."""
    for model, sweeps in ((small_model(), 500), (sr.make_model((64, 64), frames=2), 200)):
        basis = model.half_spectrum
        obs = sr.synthesize(model, sr.phantom(model.hi_res_dims), RngStream(36))
        sampler = make_kernel("arjpo", alpha_t=0.9, epsilon0=1e-2)
        drifts = []

        def kernel(target, previous, stream):
            outcome = sampler(target, previous, stream)
            state = outcome.next_sample
            drift = np.linalg.norm(basis.enter(basis.leave(state)) - state)
            drifts.append(drift / np.linalg.norm(state))
            return outcome

        sr.run_gibbs(model, obs, sweeps, 0, kernel, RngStream(37))
        assert len(drifts) == sweeps and max(drifts) <= 1e-12, (model.hi_res_dims, max(drifts))


def test_gibbs_preconditions():
    model = small_model()
    obs = sr.synthesize(model, sr.phantom((16, 16)), RngStream(19))
    sampler = make_kernel("tpo", epsilon=1e-6)
    with pytest.raises(ConfigurationError):
        sr.run_gibbs(model, obs[:-1], 10, 2, sampler, RngStream(20))
    with pytest.raises(ConfigurationError):
        sr.run_gibbs(model, obs, 0, 0, sampler, RngStream(20))
    with pytest.raises(ConfigurationError):
        sr.run_gibbs(model, obs, 10, 10, sampler, RngStream(20))


@pytest.mark.parametrize("iterations, burn_in", [(0, 0), (-1, 0), (3, 3), (3, 4), (3, -1)])
def test_gibbs_sweeps_and_burn_in_follow_run_chains_rule(iterations, burn_in):
    """run_gibbs refuses, before its first sweep, exactly what
    resolve_burn_in refuses for run_chain: fewer than 1 sweep, or a burn-in
    outside 0 .. iterations - 1; a burn-in of iterations - 1 keeps one sweep."""
    model = small_model()
    obs = sr.synthesize(model, sr.phantom((16, 16)), RngStream(19))
    calls = []

    def kernel(target, previous, stream):
        calls.append(previous)
        return make_kernel("epo")(target, previous, stream)

    with pytest.raises(ConfigurationError) as gibbs:
        sr.run_gibbs(model, obs, iterations, burn_in, kernel, RngStream(20))
    with pytest.raises(ConfigurationError) as chain:
        resolve_burn_in(iterations, burn_in)
    assert str(gibbs.value) == str(chain.value)
    assert calls == []
    summary = sr.run_gibbs(model, obs, 3, 2, kernel, RngStream(20))
    assert len(calls) == 3 and summary.records.shape[0] == 3


def test_gibbs_is_deterministic_given_a_seed():
    model = small_model()
    obs = sr.synthesize(model, sr.phantom((16, 16)), RngStream(21))
    runs = [sr.run_gibbs(model, obs, 10, 2, make_kernel("tpo", epsilon=1e-6),
                         RngStream(22)) for _ in range(2)]
    assert np.array_equal(runs[0].records, runs[1].records)
    assert np.array_equal(runs[0].x_mean, runs[1].x_mean)


def test_same_seed_runs_are_paired_across_samplers():
    """The exact sampler and T-PO pushed to machine accuracy consume the
    same substreams, so their Gibbs records coincide up to the rounding of
    their solvers: the exact one runs preconditioned CG, T-PO plain CG.  An
    unpaired x stream would move the gammas by their posterior spread, about
    10% here."""
    model = small_model()
    obs = sr.synthesize(model, sr.phantom((16, 16)), RngStream(23))
    ref = sr.run_gibbs(model, obs, 10, 2, make_kernel("cholesky_epo"),
                       RngStream(24))
    tpo = sr.run_gibbs(model, obs, 10, 2,
                       make_kernel("tpo", epsilon=EXACT_EPSILON), RngStream(24))
    # the first sweep's gammas precede any x draw
    assert np.array_equal(ref.records[0, 1:3], tpo.records[0, 1:3])
    assert np.allclose(ref.records[:, 1:3], tpo.records[:, 1:3], rtol=1e-9, atol=0)
    assert np.allclose(ref.x_mean, tpo.x_mean, rtol=1e-9, atol=0)
    assert np.all(ref.records[:, 4] < tpo.records[:, 4])  # cg cost


def test_truncation_without_correction_corrupts_hyperparameters():
    """T-PO at a loose threshold drags the smoothness precision far off the
    exact-sampler value (the chain over-smooths, shrinking ||Dx||^2, which
    feeds back into ever larger gamma_x), while its own acceptance
    diagnostic still looks healthy.  Runs are seed-paired, so the deviation
    is bias, not noise."""
    model = small_model(dims=(32, 32), fwhm=2.0)
    truth = sr.phantom((32, 32))
    obs = sr.synthesize(model, truth, RngStream(28))
    ref = sr.run_gibbs(model, obs, 200, 40, make_kernel("cholesky_epo"),
                       RngStream(29))
    loose = sr.run_gibbs(model, obs, 200, 40, make_kernel("tpo", epsilon=3e-2),
                         RngStream(29))
    loose_gamma_x, ref_gamma_x = loose.records[40:, 2].mean(), ref.records[40:, 2].mean()
    assert (loose_gamma_x - ref_gamma_x) / ref_gamma_x > 0.25
    assert loose.records[40:, 3].mean() > 0.5  # the diagnostic alone would not warn


def test_gibbs_wraps_breakdown_with_sweep_index():
    model = small_model(snr_db=math.inf)
    truth = sr.phantom((16, 16))
    obs = sr.synthesize(model, truth, RngStream(25))

    class FlatSampler:
        def __call__(self, target, previous, stream):
            flat = model.half_spectrum.enter(np.full(model.pixel_count, 0.3))
            return KernelOutcome(flat, flat, 1.0, True, 0, 0.0)

    # flat x trips the sweep after it
    with pytest.raises(NumericalBreakdownError, match="^Gibbs sweep 2 aborted"):
        sr.run_gibbs(model, obs, 10, 2, FlatSampler(), RngStream(26))


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


def _write_pgm_8_bit(path, image):
    """An 8-bit (max value 255) binary PGM, one byte per pixel; write_pgm
    writes only 16-bit files, and read_pgm takes both."""
    rows, cols = image.shape
    path.write_bytes(f"P5\n{cols} {rows}\n255\n".encode("ascii")
                     + image.astype(np.uint8).tobytes())


def test_pgm_round_trip_8_bit(tmp_path):
    image = np.arange(20.0).reshape(4, 5) * 10
    path = tmp_path / "img8.pgm"
    _write_pgm_8_bit(path, image)
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
    _write_pgm_8_bit(path, np.ones((8, 8)) * 100)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(OSError):
        sr.read_pgm(path)


def test_pgm_reader_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n3 2\n255\n0 1 2 3 4 5\n")
    with pytest.raises(OSError):
        sr.read_pgm(path)
