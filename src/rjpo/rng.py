"""Seedable random variate streams.

One stream per chain.  The underlying bit generator is PCG64 (period
2^128), driven through numpy's ``Generator``; its gamma sampler is the
Marsaglia-Tsang squeeze/rejection method, which stays stable for the very
large shape parameters (~1 + M/2) produced by the precision conditionals.
"""

from __future__ import annotations

import numpy as np

GENERATOR_NAME = "pcg64"


class RngStream:
    """A seeded variate stream.  Identical seeds replay identical sequences."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def __repr__(self):
        return f"RngStream(seed={self.seed})"

    def standard_normal_vector(self, n: int) -> np.ndarray:
        """n i.i.d. N(0, 1) draws; advances the stream."""
        if n < 1:
            raise ValueError(f"need n >= 1 draws, got {n}")
        return self._gen.standard_normal(n)

    def uniform(self) -> float:
        """One U(0, 1) draw."""
        return float(self._gen.random())

    def uniform_vector(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        if n < 1:
            raise ValueError(f"need n >= 1 draws, got {n}")
        return self._gen.uniform(low, high, n)

    def gamma_draw(self, shape: float, scale: float) -> float:
        """One Gamma(shape, scale) draw (mean shape*scale)."""
        if shape <= 0:
            raise ValueError(f"gamma shape must be > 0, got {shape}")
        if scale <= 0:
            raise ValueError(f"gamma scale must be > 0, got {scale}")
        return float(self._gen.gamma(shape, scale))

    def spawn(self, count: int) -> list["RngStream"]:
        """Independent child streams for parallel chains.

        Children are derived from this stream's seed via SeedSequence
        spawning, so they share no state with the parent or each other.
        """
        return [RngStream(s) for s in derive_seeds(self.seed, count)]


class PairedStream:
    """Routes accept/reject uniforms to a side stream.

    All kernels then consume the identical Gaussian sequence from the main
    stream, so runs with different kernels but one seed are paired (common
    random numbers); kernel comparisons measure bias, not noise.
    """

    def __init__(self, main: RngStream, side: RngStream):
        self.main = main
        self.side = side

    def standard_normal_vector(self, n: int) -> np.ndarray:
        return self.main.standard_normal_vector(n)

    def uniform(self) -> float:
        return self.side.uniform()


def derive_seeds(seed: int, count: int) -> list[int]:
    """Derive `count` statistically independent 64-bit seeds from one seed."""
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(c.generate_state(2, dtype=np.uint32).view(np.uint64)[0]) for c in children]
