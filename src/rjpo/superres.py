"""Unsupervised multi-frame image super-resolution.

Observed frames are decimated, blurred, noisy copies of one hi-res image:
y = Hx + n with H stacking per-frame decimation-after-blur maps.  Noise and
smoothness precisions get Jeffreys priors, so a three-step Gibbs sampler
alternates two Gamma conditionals with one large Gaussian conditional

    x | rest ~ N(mu, Q^-1),  Q = gamma_y H^t H + gamma_x D^t D,
                             Q mu = gamma_y H^t y,

drawn matrix-free by any kernel from adapt.make_kernel.  D is a
circulant Laplacian, so Q is never materialized.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# perfbench/run.py builds its Gibbs kernels through make_x_sampler, and
# perfbench/spans.py patches epo_step here, so both stay importable by name
from .adapt import make_kernel as make_x_sampler  # noqa: F401
from .errors import ConfigurationError, NumericalBreakdownError
from .linop import (
    CirculantOperator,
    ComposedOperator,
    DecimationOperator,
    FactoredPrecision,
    GaussianTarget,
    StackedFactor,
)
from .rng import PairedStream, RngStream
from .sampler import KernelOutcome, epo_step  # noqa: F401

LAPLACIAN_STENCIL = np.array([[0.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 0.0]])
PGM_MAX = 65535


def laplace_psf(fwhm: float, tail_mass: float = 1e-4) -> np.ndarray:
    """Laplace-shaped separable blur kernel k(i,j) ~ exp(-(|i|+|j|) 2ln2/fwhm).

    The support is the smallest centered square that discards less than
    ``tail_mass`` of the total (infinite-sum) kernel mass; the truncated
    kernel is renormalized to sum to 1.
    """
    if not (fwhm > 0 and math.isfinite(fwhm)):
        raise ConfigurationError(f"PSF FWHM must be positive finite, got {fwhm}")
    if not 0 < tail_mass < 1:
        raise ConfigurationError(f"tail_mass must lie in (0, 1), got {tail_mass}")
    decay = 2.0 * math.log(2.0) / fwhm
    q = math.exp(-decay)
    # separable: 2-D mass inside [-h,h]^2 is (s_h / s_inf)^2 with the 1-D
    # partial sums s_h = 1 + 2(q + ... + q^h), s_inf = (1+q)/(1-q)
    s_inf = (1.0 + q) / (1.0 - q)
    s_h, h = 1.0, 0
    while 1.0 - (s_h / s_inf) ** 2 >= tail_mass:
        h += 1
        s_h += 2.0 * q**h
    idx = np.arange(-h, h + 1)
    kernel = np.exp(-decay * (np.abs(idx)[:, None] + np.abs(idx)[None, :]))
    return kernel / kernel.sum()


@dataclass(eq=False)
class SuperResModel:
    """Acquisition geometry: hi-res grid, frame count, decimation, blur.

    ``psf_kernel`` must already be flux-preserving (sums to 1); ``snr_db``
    only drives synthesis, not inference.
    """

    hi_res_dims: tuple[int, int]
    frames: int
    decimation_factor: int
    psf_kernel: np.ndarray
    laplacian_kernel: np.ndarray = field(default_factory=lambda: LAPLACIAN_STENCIL.copy())
    snr_db: float = 20.0

    def __post_init__(self):
        rows, cols = self.hi_res_dims
        self.hi_res_dims = (int(rows), int(cols))
        if rows < 1 or cols < 1:
            raise ConfigurationError(f"image dims must be positive, got {self.hi_res_dims}")
        if self.frames < 1:
            raise ConfigurationError(f"need at least one frame, got {self.frames}")
        if self.decimation_factor < 1:
            raise ConfigurationError(
                f"decimation factor must be >= 1, got {self.decimation_factor}"
            )
        if rows % self.decimation_factor or cols % self.decimation_factor:
            raise ConfigurationError(
                f"decimation factor {self.decimation_factor} must divide dims {self.hi_res_dims}"
            )
        self.psf_kernel = np.asarray(self.psf_kernel, dtype=float)
        if abs(self.psf_kernel.sum() - 1.0) > 1e-8:
            raise ConfigurationError(
                f"PSF must sum to 1 (flux preservation), sums to {self.psf_kernel.sum()}"
            )
        self.laplacian_kernel = np.asarray(self.laplacian_kernel, dtype=float)
        if math.isnan(self.snr_db):
            raise ConfigurationError("snr_db must be a real number or +inf")

    @property
    def pixel_count(self) -> int:
        return self.hi_res_dims[0] * self.hi_res_dims[1]

    @property
    def frame_dims(self) -> tuple[int, int]:
        f = self.decimation_factor
        return (self.hi_res_dims[0] // f, self.hi_res_dims[1] // f)

    @property
    def data_count(self) -> int:
        return self.frames * self.pixel_count // self.decimation_factor**2

    def frame_offset(self, frame: int) -> tuple[int, int]:
        """Sub-lattice offset of one frame; frames cycle through the
        factor x factor grid of phases so they carry complementary pixels."""
        f = self.decimation_factor
        return (frame % f, (frame // f) % f)

    @cached_property
    def blur(self) -> CirculantOperator:
        k = self.psf_kernel
        return CirculantOperator(
            k, self.hi_res_dims, origin=((k.shape[0] - 1) // 2, (k.shape[1] - 1) // 2)
        )

    @cached_property
    def laplacian(self) -> CirculantOperator:
        k = self.laplacian_kernel
        return CirculantOperator(
            k, self.hi_res_dims, origin=((k.shape[0] - 1) // 2, (k.shape[1] - 1) // 2)
        )

    @cached_property
    def forward(self) -> StackedFactor:
        """H: all frames stacked, each decimation-after-blur."""
        return StackedFactor(
            [
                (
                    1.0,
                    ComposedOperator(
                        DecimationOperator(
                            self.hi_res_dims, self.decimation_factor, self.frame_offset(f)
                        ),
                        self.blur,
                    ),
                )
                for f in range(self.frames)
            ]
        )


def make_model(
    hi_res_dims=(64, 64),
    frames: int = 2,
    decimation_factor: int = 2,
    fwhm: float = 4.0,
    snr_db: float = 20.0,
) -> SuperResModel:
    model = SuperResModel(
        hi_res_dims=tuple(hi_res_dims),
        frames=frames,
        decimation_factor=decimation_factor,
        psf_kernel=laplace_psf(fwhm),
        snr_db=snr_db,
    )
    # fail fast on kernel/grid mismatches instead of at first apply
    model.blur, model.laplacian, model.forward
    return model


def synthesize(model: SuperResModel, ground_truth, stream: RngStream) -> np.ndarray:
    """y = Hx + n, noise variance set so 10 log10(||Hx||^2 / E||n||^2) = snr_db."""
    truth = np.asarray(ground_truth, dtype=float)
    if truth.shape != model.hi_res_dims:
        raise ConfigurationError(
            f"ground truth shape {truth.shape} != model dims {model.hi_res_dims}"
        )
    clean = model.forward.apply(truth.ravel())
    if math.isinf(model.snr_db):
        return clean
    power = float(clean @ clean)
    if power == 0:
        raise ConfigurationError("ground truth maps to zero signal; SNR is undefined")
    noise_var = power / (model.data_count * 10.0 ** (model.snr_db / 10.0))
    return clean + math.sqrt(noise_var) * stream.standard_normal_vector(model.data_count)


@dataclass
class GibbsState:
    """Mutable Gibbs chain state plus per-iteration records."""

    x: np.ndarray
    gamma_y: float
    gamma_x: float
    epsilon: float | None = None
    gamma_y_chain: list = field(default_factory=list)
    gamma_x_chain: list = field(default_factory=list)
    alpha_chain: list = field(default_factory=list)
    cg_chain: list = field(default_factory=list)


def sample_gamma_y(state: GibbsState, model: SuperResModel, observations,
                   stream: RngStream) -> float:
    """Noise-precision conditional Gamma(1 + M/2, 2/||y - Hx||^2)."""
    residual = observations - model.forward.apply(state.x)
    sq = float(residual @ residual)
    if sq == 0:
        raise NumericalBreakdownError(
            "data residual is exactly zero: noise-precision conditional is degenerate"
        )
    return stream.gamma_draw(1.0 + model.data_count / 2.0, 2.0 / sq)


def sample_gamma_x(state: GibbsState, model: SuperResModel, stream: RngStream) -> float:
    """Smoothness-precision conditional Gamma(1 + (N-1)/2, 2/||Dx||^2).

    Shape uses N - 1 because D annihilates constants; a constant image is a
    genuine degeneracy and aborts rather than being regularized away.
    """
    dx = model.laplacian.apply(state.x)
    sq = float(dx @ dx)
    if sq == 0:
        raise NumericalBreakdownError(
            "Dx = 0 (constant image): smoothness-precision conditional is degenerate"
        )
    return stream.gamma_draw(1.0 + (model.pixel_count - 1) / 2.0, 2.0 / sq)


def conditional_target(model: SuperResModel, observations, gamma_y: float,
                       gamma_x: float, dense_mirror: bool = False) -> GaussianTarget:
    """The Gaussian conditional of x as a factored target.

    Q = gamma_y H^t H + gamma_x D^t D through the stacked factor
    [sqrt(gamma_y) H; sqrt(gamma_x) D]; potential Q mu = gamma_y H^t y.
    The dense mirror is for small-problem oracles only.
    """
    if not (gamma_y > 0 and gamma_x > 0):
        raise ConfigurationError(f"precisions must be positive, got {gamma_y}, {gamma_x}")
    factor = StackedFactor([(gamma_y, model.forward), (gamma_x, model.laplacian)])
    precision = FactoredPrecision(factor)
    potential = gamma_y * model.forward.apply_transpose(observations)
    dense_q = dense_mu = None
    if dense_mirror:
        n = model.pixel_count
        if n > 4096:
            raise ConfigurationError(f"dense mirror refused for N = {n}")
        basis = np.eye(n)
        dense_q = np.column_stack([precision.apply(basis[:, j]) for j in range(n)])
        dense_q = 0.5 * (dense_q + dense_q.T)
        dense_mu = np.linalg.solve(dense_q, potential)
    return GaussianTarget(precision, potential, dense_q=dense_q, dense_mu=dense_mu)


def sample_x(state: GibbsState, model: SuperResModel, observations,
             stream: RngStream | PairedStream, sampler) -> tuple[np.ndarray, KernelOutcome]:
    """One draw of the Gaussian conditional by the chosen kernel."""
    target = conditional_target(model, observations, state.gamma_y, state.gamma_x)
    outcome = sampler(target, state.x, stream)
    return outcome.next_sample, outcome


@dataclass
class GibbsSummary:
    """Post-burn-in posterior summaries and the full per-iteration record."""

    hi_res_dims: tuple[int, int]
    gamma_y_mean: float
    gamma_y_std: float
    gamma_x_mean: float
    gamma_x_std: float
    x_mean: np.ndarray
    x_std: np.ndarray
    records: np.ndarray  # columns: iter, gamma_y, gamma_x, alpha, cg_iters
    wall_time: float
    mean_acceptance: float
    mean_cg: float
    peak_cg: int

    @property
    def posterior_mean_image(self) -> np.ndarray:
        return self.x_mean.reshape(self.hi_res_dims)


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if values.size >= 2 else 0.0
    return mean, std


def run_gibbs(model: SuperResModel, observations, iterations: int, burn_in: int,
              sampler, stream: RngStream) -> GibbsSummary:
    """Cycle gamma_y -> gamma_x -> x for `iterations` sweeps.

    The chain starts from x = H^t y (data-driven and never constant, so the
    smoothness conditional is well defined at the first sweep).  Summaries
    use sweeps burn_in+1 .. iterations.

    Gamma conditionals and the x perturbation draw from separate substreams
    of `stream`.  Gamma draws use rejection sampling, so their consumption
    varies with the (state-dependent) parameters; isolating them keeps the
    per-sweep Gaussian sequence identical across runs that share a seed but
    differ in x sampler, which makes sampler comparisons paired.  For the
    same reason the x kernel's accept/reject uniforms come from a side
    stream spawned off the x substream.
    """
    observations = np.asarray(observations, dtype=float).ravel()
    if observations.size != model.data_count:
        raise ConfigurationError(
            f"observations length {observations.size} != model data count {model.data_count}"
        )
    if iterations < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
    if not 0 <= burn_in < iterations:
        raise ConfigurationError(
            f"burn-in {burn_in} leaves no kept sweeps out of {iterations}"
        )

    state = GibbsState(
        x=model.forward.apply_transpose(observations), gamma_y=1.0, gamma_x=1.0
    )
    gamma_stream, x_stream = stream.spawn(2)
    x_stream = PairedStream(x_stream, x_stream.spawn(1)[0])
    n = model.pixel_count
    x_sum = np.zeros(n)
    x_sumsq = np.zeros(n)
    kept = 0
    start = time.perf_counter()
    for it in range(1, iterations + 1):
        try:
            state.gamma_y = sample_gamma_y(state, model, observations, gamma_stream)
            state.gamma_x = sample_gamma_x(state, model, gamma_stream)
            state.x, outcome = sample_x(state, model, observations, x_stream, sampler)
        except NumericalBreakdownError as exc:
            raise NumericalBreakdownError(
                f"Gibbs sweep {it} aborted: {exc}", iteration=it
            ) from exc
        state.epsilon = getattr(sampler, "epsilon", None)
        state.gamma_y_chain.append(state.gamma_y)
        state.gamma_x_chain.append(state.gamma_x)
        state.alpha_chain.append(outcome.acceptance_probability)
        state.cg_chain.append(outcome.cg_iterations)
        if it > burn_in:
            kept += 1
            x_sum += state.x
            x_sumsq += state.x**2
    wall = time.perf_counter() - start

    gy = np.array(state.gamma_y_chain)
    gx = np.array(state.gamma_x_chain)
    gy_mean, gy_std = _mean_std(gy[burn_in:])
    gx_mean, gx_std = _mean_std(gx[burn_in:])
    x_mean = x_sum / kept
    if kept >= 2:
        x_var = np.maximum(x_sumsq - kept * x_mean**2, 0.0) / (kept - 1)
    else:
        x_var = np.zeros(n)
    cg = np.array(state.cg_chain)
    records = np.column_stack(
        [np.arange(1, iterations + 1), gy, gx, np.array(state.alpha_chain), cg]
    )
    return GibbsSummary(
        hi_res_dims=model.hi_res_dims,
        gamma_y_mean=gy_mean,
        gamma_y_std=gy_std,
        gamma_x_mean=gx_mean,
        gamma_x_std=gx_std,
        x_mean=x_mean,
        x_std=np.sqrt(x_var),
        records=records,
        wall_time=wall,
        mean_acceptance=float(np.mean(state.alpha_chain)),
        mean_cg=float(cg.mean()),
        peak_cg=int(cg.max()),
    )


def phantom(dims) -> np.ndarray:
    """Deterministic smooth test image in [0, 1]: gentle ramp plus three
    Gaussian bumps.  Smooth on purpose; the prior favors small ||Dx||."""
    rows, cols = int(dims[0]), int(dims[1])
    if rows < 2 or cols < 2:
        raise ConfigurationError(f"phantom needs dims >= 2x2, got {(rows, cols)}")
    yy = np.linspace(0.0, 1.0, rows)[:, None]
    xx = np.linspace(0.0, 1.0, cols)[None, :]
    img = 0.15 + 0.25 * xx + 0.10 * yy
    for cy, cx, width, amp in (
        (0.32, 0.30, 0.15, 0.55),
        (0.68, 0.62, 0.10, 0.40),
        (0.25, 0.72, 0.06, 0.30),
    ):
        img = img + amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * width**2))
    return np.clip(img / img.max(), 0.0, 1.0)


def write_pgm(path, image, max_val: int = PGM_MAX) -> None:
    """Binary (P5) portable graymap; 2 bytes big-endian per pixel above 255."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ConfigurationError(f"PGM image must be 2-D, got shape {image.shape}")
    if not np.all(np.isfinite(image)):
        raise ConfigurationError("PGM image has non-finite pixels")
    if not 1 <= max_val <= 65535:
        raise ConfigurationError(f"PGM max value must lie in [1, 65535], got {max_val}")
    rows, cols = image.shape
    data = np.clip(np.rint(image), 0, max_val)
    dtype = np.dtype(">u2") if max_val > 255 else np.dtype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n{max_val}\n".encode("ascii"))
        fh.write(data.astype(dtype).tobytes())


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a binary PGM; returns (float pixel array, max value)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    # header: magic + 3 integers, '#' comments run to end of line
    tokens = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(blob):
            raise OSError(f"{path}: truncated PGM header")
        ch = blob[pos : pos + 1]
        if ch == b"#":
            pos = blob.find(b"\n", pos)
            if pos < 0:
                raise OSError(f"{path}: truncated PGM header")
            pos += 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(blob) and not blob[end : end + 1].isspace():
                end += 1
            tokens.append(blob[pos:end])
            pos = end
    if tokens[0] != b"P5":
        raise OSError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    try:
        cols, rows, max_val = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise OSError(f"{path}: non-integer PGM header field") from exc
    if cols < 1 or rows < 1 or not 1 <= max_val <= PGM_MAX:
        raise OSError(f"{path}: bad PGM header (size {cols} x {rows}, max value {max_val})")
    pos += 1  # single whitespace byte separates header from raster
    dtype = np.dtype(">u2") if max_val > 255 else np.dtype(np.uint8)
    count = rows * cols
    raster = blob[pos : pos + count * dtype.itemsize]
    if len(raster) != count * dtype.itemsize:
        raise OSError(f"{path}: raster truncated")
    pixels = np.frombuffer(raster, dtype=dtype).reshape(rows, cols).astype(float)
    return pixels, max_val
