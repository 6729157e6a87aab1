"""Unsupervised multi-frame image super-resolution.

Observed frames are decimated, blurred, noisy copies of one hi-res image:
y = Hx + n, where H blurs once and stacks each frame's sub-lattice
(SuperResModel.gather; scatter is its transpose).  Noise and smoothness
precisions get flat priors on (0, inf), so a three-step Gibbs sampler
alternates two Gamma conditionals (shapes 1 + M/2 and 1 + (N-1)/2) with one
large Gaussian conditional

    x | rest ~ N(mu, Q^-1),  Q = gamma_y H^t H + gamma_x D^t D,
                             Q mu = gamma_y H^t y,

drawn matrix-free by any kernel from adapt.make_kernel.  B and D are
circulant, so the model holds each as its rfft2 transfer function (b and d,
centred_transfer), and the chain lives in the orthonormal coordinates of the
real-FFT half spectrum (HalfSpectrum), where Q takes no transform
(SpectralConditional).  When C has at most one alias term (two frames at
factor 2, the default, or frames = factor^2), Q^-1 and Q^(1/2) are known
there in closed form (SpectralConditional.inverse, .root): the perturbation
draws N normals through Q^(1/2), the exact draw applies Q^-1 once, with no
CG, and a sweep transforms 1 image, inverse, for the data residual.  With
several, the perturbation draws M + N normals and back-projects the frames,
1 image forward, and the exact draw runs CG preconditioned by Q's circulant
mean P (SpectralConditional.preconditioner).  With one alias term, the
truncated kernels' plain CG runs in Q's eigenbasis, on the distinct values
of its diagonal Lambda, where a Q-apply is one multiply (PairRotation); Q^-1
and the eigenbasis share one cancellation-free block determinant.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# perfbench/run.py builds its Gibbs kernels through make_x_sampler; no kernel
# calls epo_step from here, but perfbench/spans.py patches it here by name
from .adapt import make_kernel as make_x_sampler  # noqa: F401
from .errors import ConfigurationError, NumericalBreakdownError
from .linop import Eigenbasis, FactoredPrecision, GaussianTarget
from .rng import PairedStream, RngStream
from .sampler import epo_step, resolve_burn_in  # noqa: F401

LAPLACIAN_STENCIL = np.array([[0.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 0.0]])
PGM_MAX = 65535
# share of the blur kernel's infinite-sum mass that laplace_psf may discard
TAIL_MASS = 1e-4


def psf_half_width(fwhm: float) -> int:
    """Half-width h of the support laplace_psf keeps: the smallest h whose
    centered (2h+1)^2 square discards less than TAIL_MASS of the
    infinite-sum mass of k(i,j) ~ q^(|i|+|j|), q = exp(-2 ln2 / fwhm).

    Separable: the 2-D mass inside [-h,h]^2 is (s_h / s_inf)^2 with the 1-D
    partial sums s_h = 1 + 2(q + ... + q^h), s_inf = (1+q)/(1-q), and
    s_h / s_inf = 1 - 2q^(h+1)/(1+q).  So h is the smallest integer with
    q^(h+1) < (1+q)(1 - sqrt(1 - TAIL_MASS))/2, found in closed form: the
    size check in make_model runs before any kernel is built.
    """
    if not (fwhm > 0 and math.isfinite(fwhm)):
        raise ConfigurationError(f"PSF FWHM must be positive finite, got {fwhm}")
    decay = 2.0 * math.log(2.0) / fwhm
    q = math.exp(-decay)
    # 1 - sqrt(1 - t) without the cancellation
    bound = 0.5 * (1.0 + q) * TAIL_MASS / (1.0 + math.sqrt(1.0 - TAIL_MASS))
    return max(0, math.floor(math.log(bound) / -decay))


def laplace_psf(fwhm: float) -> np.ndarray:
    """Laplace-shaped separable blur kernel k(i,j) ~ exp(-(|i|+|j|) 2ln2/fwhm).

    The support is the smallest centered square that discards less than
    TAIL_MASS of the total (infinite-sum) kernel mass (psf_half_width);
    the truncated kernel is renormalized to sum to 1.
    """
    h = psf_half_width(fwhm)
    idx = np.arange(-h, h + 1)
    decay = 2.0 * math.log(2.0) / fwhm
    kernel = np.exp(-decay * (np.abs(idx)[:, None] + np.abs(idx)[None, :]))
    return kernel / kernel.sum()


def _rfft2(images) -> np.ndarray:
    """rfft2 over the last two axes, of one image or a stack: the 1-D passes
    rfftn makes, in its order (so its bits), without its ~10 us wrapper."""
    return np.fft.fft(np.fft.rfft(images), axis=-2)


def _irfft2(spectra, cols: int) -> np.ndarray:
    """irfft2 over the last two axes, to images ``cols`` wide, as _rfft2."""
    return np.fft.irfft(np.fft.ifft(spectra, axis=-2), n=cols)


def centred_transfer(kernel, image_dims) -> np.ndarray:
    """The rfft2 half spectrum of circular convolution by ``kernel`` on an
    image_dims grid, with the kernel's centre cell ((rows - 1) // 2,
    (cols - 1) // 2) as the convolution origin.  The convolution of an image
    x by the returned t is irfft2(rfft2(x) * t, s=image_dims); its transpose
    takes conj(t).  t is made exactly a real kernel's (_real_spectrum)."""
    kernel = np.asarray(kernel, dtype=float)
    rows, cols = image_dims
    if kernel.ndim != 2:
        raise ConfigurationError("convolution kernel must be 2-D")
    if kernel.shape[0] > rows or kernel.shape[1] > cols:
        raise ConfigurationError(f"kernel {kernel.shape} larger than image {tuple(image_dims)}")
    padded = np.zeros((int(rows), int(cols)))
    padded[: kernel.shape[0], : kernel.shape[1]] = kernel
    origin = ((kernel.shape[0] - 1) // 2, (kernel.shape[1] - 1) // 2)
    return _real_spectrum(_rfft2(np.roll(padded, (-origin[0], -origin[1]), axis=(0, 1))), cols)


def _real_spectrum(spectrum, cols: int) -> np.ndarray:
    """Make ``spectrum``, the half spectrum of an image ``cols`` = K wide,
    exactly a real image's, in place: in columns 0 and K/2 (0 alone for odd
    K) row R - r takes the conjugate of row r, which rfft2 rounds apart, and
    rows 0 and R/2, self-conjugate there, a zero imaginary part."""
    rows = spectrum.shape[0]
    block = spectrum[:, :: cols // 2 if cols % 2 == 0 else cols]
    block[: rows // 2 : -1] = np.conj(block[1 : (rows + 1) // 2])
    block[:: rows // 2 if rows % 2 == 0 else rows].imag = 0.0
    return spectrum


def _alias_gather(spectrum, gather) -> np.ndarray:
    """The half spectrum read at each bin's alias source: ``gather`` is the
    (source, sign) table of one alias term or a stacked pair (HalfSpectrum),
    the flat bin each bin reads and -1 where it reads that bin conjugated."""
    source, sign = gather
    out = spectrum.take(source)  # np.take's wrapper costs 1.6 us more
    out.imag *= sign
    return out


class _DiagonalPlusGathers:
    """s -> diagonal s + sum of weight G(s) over the (gather, weight)
    aliases (a conjugate pair stacked), G the _alias_gather of ``gather``,
    for s in HalfSpectrum coordinates, no transform: the form of Q, of its
    inverse and of the rotation to its eigenbasis in SpectralConditional."""

    def __init__(self, diagonal, aliases):
        self.diagonal, self.aliases = diagonal, aliases

    def __call__(self, s) -> np.ndarray:
        spectrum = s.view(complex).reshape(self.diagonal.shape)
        out = self.diagonal * spectrum
        for gather, weight in self.aliases:
            # not an in-place product on the gathered array: that changes the
            # last bits of Q s (numpy 2.4.6)
            term = weight * _alias_gather(spectrum, gather)
            out += term if term.ndim == 2 else term[0] + term[1]
        return out.view(float).ravel()


class HalfSpectrum:
    """Orthonormal real coordinates of real images on the rfft2 half spectrum.

    s = W rfft2(x), the complex half spectrum read as one real vector, with
    W[:, j] = sqrt(w_j / N): w_j = 1 for column 0 and, when the width is
    even, for the Nyquist column, and 2 for every other column (each stands
    for itself and its mirror).  By Parseval, <enter(x), enter(y)> = <x, y>
    for real images, and leave(enter(x)) = x.  The dim = 2 R (K//2 + 1)
    coordinates hold the N real images as a subspace, the image of enter.
    Columns 0 and K/2 hold each frequency at rows r and R - r: b, d and
    ``back_project`` make the two exactly conjugate (_real_spectrum), and Q,
    its inverse, root and preconditioner and CG keep them so, bit for bit.
    B, D and their circulant means are diagonal here (Chan & Ng, SIAM Review
    1996).

    One per model, built on first use: the Gibbs chain's state lives here,
    and it holds every gamma-independent multiplier the chain needs: W
    conj(b) for ``back_project``, conj(d) for the perturbation with several
    alias terms, b / W for B x (``blurred``), the ``embedding`` A
    (``embed``), an isometry from R^N onto the real images' half spectra
    that the perturbations draw in, and the parts of the conditional's Gram,
    the diagonals |d|^2 and mean(C) |b|^2 and the ``aliases`` table.  C is
    periodic with the decimation factor f, so its spectrum lives on the f^2
    bins (p R/f, q K/f) of the R x K grid, with c_pq = fft2(C)[p R/f, q K/f]
    / N and c_00 = mean(C), and multiplying by C mixes each frequency only
    with its aliases (Tsai & Huang 1984):

        (C u)^[k] = sum_pq c_pq u^[k - (p R/f, q K/f)],  indices mod (R, K).

    Each nonzero c_pq other than c_00 gives one alias term (gather, A_pq):
    ``gather`` reads u^[k - shift] for every half-spectrum bin k as a
    (source, sign) table, the flat bin it reads and -1 on the imaginary part
    where that bin is the mirror of a shifted bin past column K//2, read
    conjugated; A_pq = W conj(b) c_pq G_pq(b / W) holds the blurs and
    coordinate scales around it.  C is real, so c_-p-q = conj(c_pq): the
    terms of (p, q) and (-p, -q) share an entry, stacked, and are summed
    first, so a bin and its mirror round alike; a term that is its own mate
    (all at f = 2) has a real c_pq.  At most f^2 - 1 ``alias_terms``; 1 for
    two frames at f = 2, none with every phase sampled once (C = I).  All
    multipliers are complex: numpy multiplies two complex arrays about twice
    as fast as a complex array by a real or broadcast one.

    With one alias term it also holds the gamma-independent ``pair_*``
    tables of the block determinant (SpectralConditional) and of
    PairRotation's U (``pair_turns``, two tables) and Lambda.  The gather
    then pairs each bin k with one bin j, both ways: the ``pair_first``
    member of each pair has the smaller flat index, its ``pair_partner`` the
    larger, and a bin that reads itself conjugated is a lone bin
    (``pair_lone``, their flat indices: (0, K/4) and (R/2, K/4) when 4
    divides K; (0, 16) and (32, 16) at 64 x 64).  ``pair_owner`` gives each
    of the dim coordinates its slot among the values PairRotation sorts:
    both coordinates of a bin read the bin's slot, except a lone bin's
    imaginary part, which reads a slot past the R (K//2 + 1) bins, one per
    lone bin in flat order.
    """

    def __init__(self, model: SuperResModel):
        rows, cols = self.dims = model.hi_res_dims
        half = cols // 2 + 1
        self.shape = (rows, half)
        self.dim = 2 * rows * half
        weights = np.full(self.shape, 2.0 + 0j)
        weights[:, :: cols // 2 if cols % 2 == 0 else cols] = 1.0  # columns 0 and K/2
        self.scale = np.sqrt(weights / model.pixel_count)
        self.unscale = 1.0 / self.scale
        self.model = model
        transfer, counts = model.blur, model.counts
        self.adjoint_blur = np.conj(transfer) * self.scale
        self.adjoint_smooth = np.conj(model.laplacian)
        self.blur = transfer * self.unscale
        power = np.abs(transfer) ** 2
        self.smooth_gram = (np.abs(model.laplacian) ** 2).astype(complex)
        self.mean_data_gram = (counts.mean() * power).astype(complex)

        # A: one normal per real degree of freedom; a frequency held at rows r
        # and R - r of columns 0 and K/2 takes (a + ib, a - ib) / sqrt(2), and a
        # self-conjugate bin (rows 0 and R/2 there) a real part only
        upper, columns = np.arange(1, (rows + 1) // 2), [0, half - 1] if cols % 2 == 0 else [0]
        lower, mirror = rows - upper, np.zeros(self.shape + (2,), dtype=bool)
        zero_imag = np.ix_([0, rows // 2] if rows % 2 == 0 else [0], columns, [1])
        mirror[np.ix_(lower, columns)] = mirror[zero_imag] = True
        index, weight = np.zeros(mirror.shape, dtype=np.intp), np.ones(mirror.shape)
        index[~mirror] = np.arange(model.pixel_count)
        index[np.ix_(lower, columns)] = index[np.ix_(upper, columns)]
        weight[np.ix_(upper, columns)] = math.sqrt(0.5)
        weight[np.ix_(lower, columns)] = [math.sqrt(0.5), -math.sqrt(0.5)]
        weight[zero_imag] = 0.0
        self.embedding = index.ravel(), weight.ravel()

        f = model.decimation_factor
        coefficients = np.fft.fft2(counts[:f, :f]) / f**2  # c_pq from one period of C
        row, col = np.arange(rows)[:, None], np.arange(half)[None, :]
        self.aliases, moduli, self.alias_terms = [], [], 0
        for (p, q), c in np.ndenumerate(coefficients):
            # c_pq sums f^2 integer multiples of f-th roots of unity: below
            # this it is the rounding of an exact zero
            mate = (-p % f, -q % f)
            if (p, q) == (0, 0) or mate < (p, q) or abs(c) <= 1e-12 * coefficients[0, 0].real:
                continue
            if mate == (p, q):  # its own mate: c_pq is real
                shift_row, shift_col, c = p, q, c.real
            else:  # C is real, so c_-p-q = conj(c_pq): the pair is stacked
                shift_row, shift_col = np.array([(p, q), mate]).T[:, :, None, None]
                c = np.array([c, np.conj(c)])[:, None, None]
            source_row = (row - shift_row * rows // f) % rows
            source_col = (col - shift_col * cols // f) % cols
            # past column K//2, the mirror bin (-row mod R, K - col), conjugated
            mirrored = source_col > cols // 2
            gather = (np.where(mirrored, ((-source_row) % rows) * half + cols - source_col,
                               source_row * half + source_col),
                      np.where(mirrored, -1.0, 1.0))
            self.aliases.append((gather, c * self.adjoint_blur * _alias_gather(self.blur, gather)))
            self.alias_terms += np.size(c)  # 2 for a stacked pair
            moduli.append(abs(c))
        if self.alias_terms != 1:
            return

        [((source, _), weight)] = self.aliases
        flat = np.arange(source.size).reshape(self.shape)
        self.pair_first, self.pair_partner = flat < source, flat > source
        lone = flat == source
        # every table below reads the same at both members of a pair: each
        # product of a bin's value and its partner's is formed in one order
        both_powers = power * np.take(power, source)
        data, smooth = self.mean_data_gram.real, self.smooth_gram.real
        c0, [c1] = coefficients[0, 0].real, moduli
        # |A| = |c1| |b_k| |b_j| (W is the same on both members)
        self.pair_modulus = c1 * np.sqrt(both_powers)
        # the determinant P_k P_j - |w|^2 of a pair's block, over gamma_y^2,
        # gamma_y gamma_x and gamma_x^2, each part non-negative (C >= 0, so
        # c0 >= |c1|, and two frames at f = 2 have c0 = |c1|)
        self.pair_determinant = ((c0 - c1) * (c0 + c1) * both_powers,
                                 data * np.take(smooth, source) + smooth * np.take(data, source),
                                 smooth * np.take(smooth, source))
        # e^(i phi) of A at each bin gives U's diagonal turn and signed gather
        # phase (see PairRotation); a lone bin's sin is 0, so only its turn counts
        phase = np.divide(weight, np.abs(weight), out=np.ones_like(weight), where=weight != 0)
        self.pair_turns = (np.where(lone, np.conj(np.sqrt(phase)), 1.0),
                           np.where(self.pair_first, phase, -phase))
        # both coordinates of a bin share its eigenvalue (PairRotation), except
        # a lone bin's imaginary part, which reads a slot past the bins
        self.pair_lone = np.flatnonzero(lone)
        owner = np.stack((flat, flat), axis=-1)
        owner[lone, 1] = flat.size + np.arange(self.pair_lone.size)
        self.pair_owner = owner.ravel()

    def enter(self, x):
        """s = W rfft2(x) for a flattened real image x."""
        return (self.scale * _rfft2(x.reshape(self.dims))).view(float).ravel()

    def leave(self, s):
        """The flattened real image x with enter(x) = s."""
        spectrum = s.view(complex).reshape(self.shape) * self.unscale
        return _irfft2(spectrum, self.dims[1]).ravel()

    def embed(self, z):
        """A z: N coordinates z onto real images' half spectra, isometrically
        (A^t A = I_N, and A A^t is the projector enter leave), one gather;
        A is gamma-independent."""
        index, weight = self.embedding
        return weight * z.take(index)

    def back_project(self, data):
        """enter(H^t data) for stacked frames: W conj(b) rfft2(scatter(data)),
        one rfft2, made exactly a real image's (_real_spectrum)."""
        spectrum = _real_spectrum(_rfft2(self.model.scatter(data)), self.dims[1])
        return (self.adjoint_blur * spectrum).view(float).ravel()

    def blurred(self, s):
        """The blurred image B x of x = leave(s): irfft2((b / W) s), one
        irfft2."""
        return _irfft2(self.blur * s.view(complex).reshape(self.shape), self.dims[1])


class SpectralConditional(FactoredPrecision):
    """The conditional precision Q in HalfSpectrum coordinates, held as a
    factor F with F^t F = Q on real images' half spectra: any such factor
    draws a perturbation of the right law (Orieux, Feron & Giovannelli,
    IEEE SPL 2012).  With at most one alias term it is the square
    A^t Q^(1/2), out_dim N, A the isometry HalfSpectrum.embed: F^t w =
    Q^(1/2) A w (``root``) takes no transform, and F^t F = Q^(1/2) A A^t
    Q^(1/2) is Q on A's range, the real images' half spectra, which Q^(1/2)
    keeps.  With several it is [sqrt(gamma_y) H; sqrt(gamma_x) A^t D] seen
    from the coordinates, out_dim M + N: F^t w = sqrt(gamma_y)
    back_project(w_y) + sqrt(gamma_x) conj(d) A w_x, 1 image forward.

    Replacing C by its mean gives the circulant
    P = gamma_y mean(C) |b|^2 + gamma_x |d|^2 (the Strang/Chan
    preconditioner), diagonal here; Q is P plus the alias terms of C:

        Q s = P s + gamma_y sum_pq A_pq G_pq(s),

    pointwise products and one index gather per term, no transform.  P is
    positive: |d|^2 vanishes only at frequency zero, where |b|^2 = 1 and
    mean(C) > 0.  With frames = factor^2, C = I and Q = P.

    ``inverse`` is Q^-1 when C has at most one alias term (frames =
    factor^2, or two frames at factor 2), and None when it has more;
    ``preconditioner`` is P^-1 whatever the alias count: the exact draw's
    CG solve takes it where there is no ``inverse``.  Neither takes a transform.
    With exactly one alias term it also offers ``rotation``, Q's eigenbasis
    (PairRotation), where plain CG runs; with none or several, ``rotation``
    is None and plain CG applies Q as above.  Both read ``paired_mean`` (P_j
    at bin k of a pair (k, j)) and ``determinant`` (P_k P_j - |w|^2, summed
    from the non-negative parts of HalfSpectrum.pair_determinant), built
    once with one alias term.

    The alias sum is Q only on real images' half spectra (the image of
    ``enter``), where it is the spectrum of B^t C B x; the perturbations,
    CG's iterates and the state stay there exactly (HalfSpectrum).
    """

    def __init__(self, basis: HalfSpectrum, gamma_y: float, gamma_x: float):
        if not (gamma_y > 0 and gamma_x > 0):
            raise ConfigurationError(f"precisions must be positive, got {gamma_y}, {gamma_x}")
        self.basis = basis
        self.in_dim = basis.dim
        self.out_dim = basis.model.pixel_count
        if basis.alias_terms > 1:
            self.out_dim += basis.model.data_count
        self.gammas = gamma_y, gamma_x
        self._roots = math.sqrt(gamma_y), math.sqrt(gamma_x)
        mean = gamma_y * basis.mean_data_gram + gamma_x * basis.smooth_gram
        self.gram = _DiagonalPlusGathers(
            mean, [(gather, gamma_y * weight) for gather, weight in basis.aliases])
        if basis.alias_terms == 1:
            [((source, _), _)] = basis.aliases
            self.paired_mean = np.take(mean, source)
            by_y, by_both, by_x = basis.pair_determinant
            self.determinant = (gamma_y * gamma_y * by_y + gamma_y * gamma_x * by_both
                                + gamma_x * gamma_x * by_x)

    def apply_transpose(self, w):
        """F^t w: Q^(1/2) A w (``root``, HalfSpectrum.embed) with at most one
        alias term, no transform; with several, the frames' back-projection
        plus conj(d) A w_x, one transform."""
        if self.root is not None:
            return self.root(self.basis.embed(w))
        basis, (root_y, root_x) = self.basis, self._roots
        count = basis.model.data_count
        smooth = basis.adjoint_smooth * basis.embed(w[count:]).view(complex).reshape(basis.shape)
        return root_y * basis.back_project(w[:count]) + (root_x * smooth).view(float).ravel()

    @cached_property
    def root(self):
        """Q^(1/2) as a map, no transform, when C has at most one alias term,
        else None.  Q^(1/2) is a function of Q, so it has Q's blocks
        (``inverse``): on a pair's Hermitian block Q_2 with determinant
        det, Q_2^(1/2) = (Q_2 + sqrt(det) I) / sqrt(P_k + P_j + 2 sqrt(det))
        (Cayley-Hamilton; a lone bin is its own pair, P_j = P_k), and with
        no alias term it is sqrt(P).  Every sum is of positive terms, and
        det is the cancellation-free ``determinant``."""
        aliases = self.gram.aliases
        if self.basis.alias_terms > 1:
            return None
        if not aliases:
            return _DiagonalPlusGathers(np.sqrt(self.gram.diagonal), [])
        [(gather, weight)] = aliases
        root_det = np.sqrt(self.determinant)
        scale = (1.0 / np.sqrt((self.gram.diagonal + self.paired_mean).real
                               + 2.0 * root_det)).astype(complex)
        return _DiagonalPlusGathers((self.gram.diagonal + root_det) * scale,
                                    [(gather, weight * scale)])

    @cached_property
    def preconditioner(self):
        """s -> P^-1 s = s / P, the Strang/Chan preconditioner, no transform;
        built on first use, so only exact draws with several alias terms pay
        for it."""
        return _DiagonalPlusGathers(1.0 / self.gram.diagonal, [])

    @cached_property
    def inverse(self):
        """Q^-1 as a map, no transform, when C has at most one alias term,
        else None; built by the exact draw, which applies it in place of a
        solve (rjpo.sampler.epo_step).  With no alias term Q = P (C = I).

        With one alias term (gather, w), the term's shift is its own
        negative (C is real, so c_-pq = conj c_pq is a term too), so the
        gather G pairs each bin k with one bin j, G(G(s)) = s, and Q is
        block diagonal in 1 x 1 and 2 x 2 blocks:

            (Q s)_k = P_k s_k + w_k ~s_j,   (Q s)_j = P_j s_j + w_j ~s_k,

        ~ the conjugation the gather applies (none, or conj where a shifted
        bin leaves the half spectrum).  Solving each block,

            (Q^-1 s)_k = (P_j s_k - w_k ~s_j) / (P_k P_j - |w|^2),

        with P_j = G(P)_k (``paired_mean``) and the block's ``determinant``:
        Q^-1 is the same diagonal plus one gather, at about the cost of a
        Q-apply.  Its two tables multiply by one complex reciprocal of the
        determinant: numpy's bits for dividing by it, in about half the time.
        """
        if self.basis.alias_terms > 1:
            return None
        if not self.gram.aliases:
            return _DiagonalPlusGathers(1.0 / self.gram.diagonal, [])
        [(gather, weight)] = self.gram.aliases
        reciprocal = (1.0 / self.determinant).astype(complex)
        return _DiagonalPlusGathers(self.paired_mean * reciprocal,
                                    [(gather, -weight * reciprocal)])

    @cached_property
    def rotation(self):
        """Q's eigenbasis (PairRotation) when C has exactly one alias term,
        else None; built by the first plain solve against this Q, so the
        exact draw, which applies ``inverse``, never pays for it."""
        return PairRotation(self) if self.basis.alias_terms == 1 else None


class PairRotation(Eigenbasis):
    """An orthogonal U and positive diagonal Lambda with U Q U^t = Lambda,
    for the conditional Q of one alias term, no transform.

    Q is block diagonal (SpectralConditional.inverse): on the
    first member k of a pair and its partner j it is the Hermitian block
    [[P_k, w], [conj w, P_j]] on (s_k, ~s_j), w = |w| e^(i phi) = w_k.
    Its eigenvalues are

        lambda+ = (P_k + P_j) / 2 + r,   r^2 = ((P_k - P_j) / 2)^2 + |w|^2,
        lambda- = det / lambda+,

    with det = P_k P_j - |w|^2 the conditional's ``determinant``, summed
    without cancellation, so lambda- keeps its relative accuracy however
    small it is.  A Jacobi rotation by theta, with tan theta =
    |w| / (|P_k - P_j| / 2 + r) or its inverse, after a turn by phi,
    diagonalises the block (Golub & Van Loan, Matrix Computations, 8.5):
    the first member's coordinate takes lambda+, the
    partner's lambda-.  A lone bin, which reads itself, has
    (Q s)_k = P_k s_k + w conj(s_k); turned by e^(-i phi / 2), its real part
    takes P_k + |w| (lambda+) and its imaginary part P_k - |w| (lambda-).

    ``enter`` (s -> U s) and ``leave`` (u -> U^t u) are each a diagonal
    plus the alias term's gather G, as Q is: U = cos t + sin g G and
    U^t = cos conj(t) - sin g G, with the pair's cos and sin, and
    HalfSpectrum.pair_turns' diagonal turn t (e^(-i phi / 2) at a lone bin, 1
    elsewhere) and signed gather phase g (e^(i phi) at a first member,
    -e^(i phi) at a partner, each bin's own phase).  Lambda is a diagonal on
    the real view (``values``), so Q in the eigenbasis, this rotation as
    a precision, is one multiply.  A paired bin's real and imaginary parts
    share an eigenvalue, and so do mirror rows: at 64 x 64 the 4224
    coordinates hold 1200-1480 distinct values, and cg_solve runs plain CG
    on those.  So the rotation hands Eigenbasis one value per bin and one
    more per lone bin, 2114 at 64 x 64, with HalfSpectrum.pair_owner, and
    only those are sorted to group them.
    CG is invariant under an orthogonal change of basis (Hestenes & Stiefel
    1952), so this runs the iterations of plain CG on Q, up to rounding: it
    is not a preconditioner.
    """

    def __init__(self, conditional: SpectralConditional):
        basis = conditional.basis
        gamma_y = conditional.gammas[0]
        [(gather, _)] = conditional.gram.aliases
        mean, paired = conditional.gram.diagonal.real, conditional.paired_mean.real
        # (P_k - P_j) / 2 at the first member k, its negative at the partner
        gap = (mean - paired) * 0.5
        modulus = gamma_y * basis.pair_modulus
        radius = np.sqrt(gap * gap + modulus * modulus)  # np.hypot takes 3x longer
        high = (mean + paired) * 0.5 + radius
        low = conditional.determinant / high
        denominator = np.abs(gap) + radius
        # lone bins take no rotation angle, only a phase turn
        tangent = np.divide(modulus, denominator, out=np.zeros(basis.shape),
                            where=(denominator > 0) & (basis.pair_first | basis.pair_partner))
        cos = 1.0 / np.sqrt(1.0 + tangent * tangent)
        sin = tangent * cos
        # tangent is tan theta when P_k >= P_j and 1 / tan theta when P_k < P_j,
        # where the first member's eigenvector leans to the partner
        swap = np.where(basis.pair_partner, gap > 0, gap < 0)
        cos, sin = np.where(swap, sin, cos), np.where(swap, cos, sin)
        # a bin's value (lambda+ at a first member and a lone bin's real part,
        # lambda- at a partner), then lambda- of each lone bin's imaginary part
        plane = np.where(basis.pair_partner, low, high)
        turn, phase = basis.pair_turns
        gathered = sin * phase
        super().__init__(np.concatenate((plane.ravel(), low.take(basis.pair_lone))),
                         _DiagonalPlusGathers(cos * turn, [(gather, gathered)]),
                         _DiagonalPlusGathers(cos * np.conj(turn), [(gather, -gathered)]),
                         basis.pair_owner)


@dataclass(eq=False)
class SuperResModel:
    """Acquisition geometry: hi-res grid, frame count, decimation, blur.

    ``psf_kernel`` must already be flux-preserving (sums to 1); ``snr_db``
    only drives synthesis, not inference.  The model holds the operators
    once: ``blur`` and ``laplacian`` are the transfer functions b and d of B
    and D (centred_transfer), and frame k keeps the pixels with
    (row, col) % factor == ``frame_offsets[k]`` (``gather``; ``scatter`` is
    its transpose, and ``counts`` C the number of frames that sample each
    pixel, so H^t H = B^t C B).
    """

    hi_res_dims: tuple[int, int]
    frames: int
    decimation_factor: int
    psf_kernel: np.ndarray
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
        if not np.all(np.isfinite(self.psf_kernel)):
            raise ConfigurationError("PSF has non-finite entries")
        if abs(self.psf_kernel.sum() - 1.0) > 1e-8:
            raise ConfigurationError(
                f"PSF must sum to 1 (flux preservation), sums to {self.psf_kernel.sum()}"
            )
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ConfigurationError(f"snr_db must be a real number or +inf, got {self.snr_db}")

    @property
    def pixel_count(self) -> int:
        return self.hi_res_dims[0] * self.hi_res_dims[1]

    @property
    def data_count(self) -> int:
        return self.frames * self.pixel_count // self.decimation_factor**2

    @cached_property
    def frame_offsets(self) -> tuple[tuple[int, int], ...]:
        """Sub-lattice offset of each frame; frames cycle through the
        factor x factor grid of phases so they carry complementary pixels."""
        f = self.decimation_factor
        return tuple((frame % f, (frame // f) % f) for frame in range(self.frames))

    @cached_property
    def blur(self) -> np.ndarray:
        """b, the transfer function of the blur B."""
        return centred_transfer(self.psf_kernel, self.hi_res_dims)

    @cached_property
    def laplacian(self) -> np.ndarray:
        """d, the transfer function of the smoothness operator D, the
        5-point Laplacian LAPLACIAN_STENCIL."""
        return centred_transfer(LAPLACIAN_STENCIL, self.hi_res_dims)

    @cached_property
    def frame_index(self) -> np.ndarray:
        """The flat pixel each entry of the stacked frames reads: frame k's
        sub-lattice (row, col) % factor == frame_offsets[k], row-major."""
        f, pixels = self.decimation_factor, np.arange(self.pixel_count).reshape(self.hi_res_dims)
        return np.concatenate([pixels[r::f, c::f].ravel() for r, c in self.frame_offsets])

    @cached_property
    def counts(self) -> np.ndarray:
        """C: the number of frames that sample each pixel."""
        return self.scatter(np.ones(self.data_count))

    def gather(self, image) -> np.ndarray:
        """H without the blur: each frame's sub-lattice of the image, stacked."""
        return image.reshape(self.hi_res_dims).take(self.frame_index)

    def scatter(self, frames) -> np.ndarray:
        """H^t without the blur: each frame added onto its sub-lattice, in
        stacked-frame order (bincount), so in the order of a loop over frames."""
        return np.bincount(self.frame_index, frames, self.pixel_count).reshape(self.hi_res_dims)

    @cached_property
    def half_spectrum(self) -> HalfSpectrum:
        """The coordinates this model's Gibbs chain runs in."""
        return HalfSpectrum(self)


def make_model(
    hi_res_dims=(64, 64),
    frames: int = 2,
    decimation_factor: int = 2,
    fwhm: float = 4.0,
    snr_db: float = 20.0,
) -> SuperResModel:
    width = 2 * psf_half_width(fwhm) + 1
    if width > min(hi_res_dims):
        raise ConfigurationError(
            f"a FWHM {fwhm} blur spans {width} pixels, more than the image {tuple(hi_res_dims)}"
        )
    model = SuperResModel(
        hi_res_dims=tuple(hi_res_dims),
        frames=frames,
        decimation_factor=decimation_factor,
        psf_kernel=laplace_psf(fwhm),
        snr_db=snr_db,
    )
    # fail fast on kernel/grid mismatches instead of at first apply
    model.blur, model.laplacian
    return model


def synthesize(model: SuperResModel, ground_truth, stream: RngStream) -> np.ndarray:
    """y = Hx + n, noise variance set so 10 log10(||Hx||^2 / E||n||^2) = snr_db."""
    truth = np.asarray(ground_truth, dtype=float)
    if truth.shape != model.hi_res_dims:
        raise ConfigurationError(
            f"ground truth shape {truth.shape} != model dims {model.hi_res_dims}"
        )
    clean = model.gather(_irfft2(_rfft2(truth) * model.blur, model.hi_res_dims[1]))
    if model.snr_db == math.inf:
        return clean
    power = float(clean @ clean)
    if power == 0:
        raise ConfigurationError("ground truth maps to zero signal; SNR is undefined")
    noise_var = power / (model.data_count * 10.0 ** (model.snr_db / 10.0))
    return clean + math.sqrt(noise_var) * stream.standard_normal_vector(model.data_count)


def sample_gamma_y(s, model: SuperResModel, observations, stream: RngStream) -> float:
    """Noise-precision conditional Gamma(1 + M/2, 2/||y - Hx||^2) at the
    image x with HalfSpectrum coordinates s: one irfft2 for Hx."""
    residual = observations - model.gather(model.half_spectrum.blurred(s))
    sq = float(residual @ residual)
    if sq == 0:
        raise NumericalBreakdownError(
            "data residual is exactly zero: noise-precision conditional is degenerate"
        )
    return stream.gamma_draw(1.0 + model.data_count / 2.0, 2.0 / sq)


def sample_gamma_x(s, model: SuperResModel, stream: RngStream) -> float:
    """Smoothness-precision conditional Gamma(1 + (N-1)/2, 2/||Dx||^2) at the
    image x with HalfSpectrum coordinates s, where ||Dx||^2 = sum |d|^2 |s|^2
    takes no transform.

    Shape uses N - 1 because D annihilates constants; a constant image is a
    genuine degeneracy and aborts rather than being regularized away.
    """
    spectrum = s.view(complex)
    sq = float(np.vdot(spectrum, model.half_spectrum.smooth_gram.ravel() * spectrum).real)
    if sq == 0:
        raise NumericalBreakdownError(
            "Dx = 0 (constant image): smoothness-precision conditional is degenerate"
        )
    return stream.gamma_draw(1.0 + (model.pixel_count - 1) / 2.0, 2.0 / sq)


def conditional_target(model: SuperResModel, back_projection, gamma_y: float,
                       gamma_x: float) -> GaussianTarget:
    """The Gaussian conditional of x as a factored target in the model's
    HalfSpectrum coordinates.

    Q = gamma_y H^t H + gamma_x D^t D through SpectralConditional; potential
    Q mu = gamma_y H^t y, from the back-projection of the observations in
    coordinates, half_spectrum.back_project(y) (fixed for a run, so callers
    compute it once).
    """
    return GaussianTarget(SpectralConditional(model.half_spectrum, gamma_y, gamma_x),
                          gamma_y * np.asarray(back_projection, dtype=float))


# the columns of run_gibbs's per-sweep records, one row per sweep
RECORD_COLUMNS = ("iter", "gamma_y", "gamma_x", "alpha", "cg_iters")


@dataclass
class GibbsSummary:
    """The Gibbs loop's per-sweep record, posterior mean and wall time."""

    records: np.ndarray  # columns: RECORD_COLUMNS, one row per sweep
    x_mean: np.ndarray  # the posterior mean image
    wall_time: float


def run_gibbs(model: SuperResModel, observations, iterations: int, burn_in: int,
              sampler, stream: RngStream) -> GibbsSummary:
    """Cycle gamma_y -> gamma_x -> x for `iterations` sweeps.

    The chain's state is x in the model's HalfSpectrum coordinates: H^t y is
    mapped in once (1 rfft2), a sweep transforms 1 image, inverse, for the
    data residual, plus 1 forward for the perturbation when C has several
    alias terms (SpectralConditional), and the posterior
    mean is mapped out once (1 irfft2).  The chain starts
    from x = H^t y (data-driven and never constant, so the smoothness
    conditional is well defined at the first sweep); the same
    back-projection scales into every sweep's potential.  The posterior mean
    covers the kept sweeps burn_in+1 .. iterations, the records every sweep.

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
    burn_in = resolve_burn_in(iterations, burn_in)

    basis = model.half_spectrum
    back_projection = basis.back_project(observations)
    x = back_projection.copy()
    gamma_stream, x_stream = stream.spawn(2)
    x_stream = PairedStream(x_stream, x_stream.spawn(1)[0])
    records = np.empty((iterations, len(RECORD_COLUMNS)))
    records[:, 0] = np.arange(1, iterations + 1)
    x_sum = np.zeros(basis.dim)
    start = time.perf_counter()
    for it in range(1, iterations + 1):
        try:
            gamma_y = sample_gamma_y(x, model, observations, gamma_stream)
            gamma_x = sample_gamma_x(x, model, gamma_stream)
            target = conditional_target(model, back_projection, gamma_y, gamma_x)
            outcome = sampler(target, x, x_stream)
        except NumericalBreakdownError as exc:
            raise NumericalBreakdownError(f"Gibbs sweep {it} aborted: {exc}") from exc
        x = outcome.next_sample
        records[it - 1, 1:] = (gamma_y, gamma_x, outcome.acceptance_probability,
                               outcome.cg_iterations)
        if it > burn_in:
            x_sum += x
    wall = time.perf_counter() - start
    x_mean = basis.leave(x_sum / (iterations - burn_in)).reshape(model.hi_res_dims)
    return GibbsSummary(records, x_mean, wall)


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


def write_pgm(path, image) -> None:
    """Binary (P5) 16-bit portable graymap, max value PGM_MAX: each pixel
    rounded, clipped to [0, PGM_MAX] and written as 2 bytes big-endian."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ConfigurationError(f"PGM image must be 2-D, got shape {image.shape}")
    if not np.all(np.isfinite(image)):
        raise ConfigurationError("PGM image has non-finite pixels")
    rows, cols = image.shape
    data = np.clip(np.rint(image), 0, PGM_MAX)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n{PGM_MAX}\n".encode("ascii"))
        fh.write(data.astype(">u2").tobytes())


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
