"""In-memory span tracer that wraps rjpo's public functions from outside.

A span is (name, start, end, parent).  Spans go at the layer boundaries
listed in ``layer_patches``; each is opened and closed by a wrapper that
the tracer installs for the duration of one ``with tracer.installed():``
block and removes afterwards, so untraced runs execute the library
unmodified.  Self time is a span's duration minus the time its child
spans cover.

Wrappers must replace a function where it is *looked up*, not where it is
defined: ``rjpo.sampler`` imports ``cg_solve`` by name, ``rjpo.adapt``
imports ``rjpo_step`` and ``rjpo.superres`` imports ``epo_step``, so
patching ``rjpo.cg.cg_solve`` would trace nothing.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

import rjpo.adapt
import rjpo.sampler
import rjpo.superres
from rjpo.linop import FactoredPrecision, GaussianTarget
from rjpo.rng import RngStream


def layer_patches():
    """(owner, attribute, span name) for every traced layer boundary."""
    return [
        (rjpo.sampler, "perturb", "sampler.perturb"),
        (rjpo.sampler, "epo_step", "sampler.step"),  # epo_kernel's closure
        (rjpo.adapt, "rjpo_step", "sampler.step"),  # AdaptiveRjpoKernel
        (rjpo.superres, "epo_step", "sampler.step"),  # CholeskyEpo.draw
        (rjpo.adapt, "update_min_cces", "adapt.update"),
        (rjpo.adapt, "update_target_rate", "adapt.update"),
        (FactoredPrecision, "apply", "linop.q_apply"),
        (GaussianTarget, "mirror_solve", "linop.mirror_solve"),
        (RngStream, "standard_normal_vector", "rng.normal"),
        (rjpo.superres, "sample_gamma_y", "superres.gamma"),
        (rjpo.superres, "sample_gamma_x", "superres.gamma"),
        (rjpo.superres, "conditional_target", "superres.target"),
    ]


class Tracer:
    """Collects spans plus the CG and FFT counts taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ffts: list[int] = []  # FFT calls made inside each span
        self._stack: list[int] = []
        self.fft_calls = 0
        self.cg_iterations = 0
        self.cg_solves = 0
        self.cg_cap_hits = 0

    def open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ffts.append(self.fft_calls)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.ffts[idx] = self.fft_calls - self.ffts[idx]
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def _wrap_cg(self, fn):
        """cg_solve span that also counts iterations and iteration-cap hits."""

        def traced(q, b, x0=None, epsilon=0.0, max_iters=None):
            idx = self.open("cg.solve")
            try:
                out = fn(q, b, x0=x0, epsilon=epsilon, max_iters=max_iters)
            finally:
                self.close(idx)
            cap = max_iters if max_iters is not None else 10 * np.size(b)
            self.cg_solves += 1
            self.cg_iterations += out.iterations
            if out.iterations >= cap and out.relative_residual > epsilon:
                self.cg_cap_hits += 1
            return out

        return traced

    def _count_fft(self, fn):
        def counted(*args, **kwargs):
            self.fft_calls += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper, and restore the originals on exit."""
        patches = [(owner, attr, self.wrap(name, getattr(owner, attr)))
                   for owner, attr, name in layer_patches()]
        patches.append((rjpo.sampler, "cg_solve", self._wrap_cg(rjpo.sampler.cg_solve)))
        patches += [(np.fft, attr, self._count_fft(getattr(np.fft, attr)))
                    for attr in ("fft2", "ifft2")]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, FFT calls."""
        starts = np.array(self.starts)
        duration = np.array(self.ends) - starts
        parents = np.array(self.parents, dtype=np.int64)
        nested = parents >= 0
        covered = np.zeros(duration.size)
        np.add.at(covered, parents[nested], duration[nested])
        own = duration - covered
        ffts = np.array(self.ffts)
        names = np.array(self.names)
        out = {}
        for name in dict.fromkeys(self.names):
            mask = names == name
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(duration[mask].sum()),
                "self_s": float(own[mask].sum()),
                "fft_calls": int(ffts[mask].sum()),
            }
        return out

    def save(self, path) -> None:
        """Write the raw spans (times relative to the first span's start)."""
        names = list(dict.fromkeys(self.names))
        code = {n: i for i, n in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0.0
        np.savez(
            path,
            names=np.array(names),
            name=np.array([code[n] for n in self.names], dtype=np.int16),
            start=np.array(self.starts) - t0,
            end=np.array(self.ends) - t0,
            parent=np.array(self.parents, dtype=np.int64),
            fft_calls=np.array(self.ffts, dtype=np.int64),
        )
