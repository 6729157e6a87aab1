"""Every rjpo name and call that perfbench/run.py and perfbench/spans.py use.

The benchmark runs from its own checkout and changes only with a
benchmark change, so the package must keep what it reaches for:

- the names run.py imports from rjpo;
- every (owner, attribute) that spans.layer_patches() wraps, and
  rjpo.sampler.cg_solve, which the tracer wraps with the keywords x0,
  epsilon and max_iters; of these, GaussianTarget.mirror_solve must still
  solve Q x = b;
- every benchmarked kernel runs under the installed tracer, whose
  cg_solve wrapper forwards only x0, epsilon and max_iters, so no
  benchmarked path may pass cg_solve a ``precondition``;
- the calls run.py makes: ``make_x_sampler(...).draw`` and
  ``epo_kernel().draw``, ``.epsilon`` and ``.controller.degenerate_windows``
  on the adaptive kernel, ``mirror_cholesky()`` on the AR(1) target, a
  six-field positional KernelOutcome, ``run_chain(...).x`` and
  ``run_gibbs(...).x_mean``.

Some of these are kept for perfbench alone and go once it stops using
them: the ``.draw`` aliases on epo_kernel and AdaptiveRjpoKernel;
superres.make_x_sampler; the epo_step re-export in rjpo.superres;
GaussianTarget.mirror_cholesky and GaussianTarget.mirror_solve; and the
cholesky_epo sampler name.  This file shrinks with them.

run.py is parsed, not imported: importing it sets the BLAS thread
variables and exits when rjpo comes from another checkout.
"""

import ast
import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np

import rjpo.sampler
from rjpo.adapt import AdaptController, AdaptiveRjpoKernel, MinCces
from rjpo.problems import ar1_target
from rjpo.rng import RngStream
from rjpo.sampler import KernelOutcome, epo_kernel, run_chain
from rjpo.superres import make_model, make_x_sampler, phantom, run_gibbs, synthesize

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_name_run_py_imports_from_rjpo_resolves():
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module.startswith("rjpo")
                for alias in node.names]
    assert len(imported) >= 10
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def _spans():
    """perfbench/spans.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_patch_spans_py_installs_resolves():
    spans = _spans()
    patches = [(owner, attr) for owner, attr, _ in spans.layer_patches()]
    patches.append((rjpo.sampler, "cg_solve"))
    for owner, attr in patches:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
    parameters = inspect.signature(rjpo.sampler.cg_solve).parameters
    assert {"x0", "epsilon", "max_iters"} <= set(parameters)


def test_the_calls_run_py_makes():
    target, _, _ = ar1_target(16, 1.0, 0.8, stream=RngStream(1))
    assert np.array_equal(target.mirror_cholesky(), target.precision.matrix.T)
    adaptive = AdaptiveRjpoKernel(AdaptController(math.log(1e-2), MinCces()))
    for kernel in (epo_kernel(), adaptive):
        chain = run_chain(target, kernel.draw, 6, None, RngStream(2), track_covariance=False)
        assert chain.x.shape == (16,)
    assert adaptive.epsilon > 0 and adaptive.controller.degenerate_windows >= 0
    outcome = KernelOutcome(chain.x, chain.x, 0.0, False, 0, math.inf)
    assert outcome.relative_residual == math.inf

    model = make_model((16, 16), frames=2, decimation_factor=2, fwhm=1.0, snr_db=20.0)
    observations = synthesize(model, phantom((16, 16)), RngStream(3))
    for sampler in (make_x_sampler("cholesky_epo"),
                    make_x_sampler("arjpo", alpha_t=0.99, epsilon0=1e-2)):
        summary = run_gibbs(model, observations, 4, 0, sampler.draw, RngStream(4))
        assert summary.x_mean.shape == (16, 16)


def test_mirror_solve_solves():
    """The GaussianTarget.mirror_solve shim that spans.py wraps solves
    Q x = b on the AR(1) N = 16 target, through the factor's ``inverse``."""
    target, _, _ = ar1_target(16, 1.0, 0.8, stream=RngStream(1))
    b = np.random.default_rng(5).standard_normal(16)
    residual = b - target.precision.apply(target.mirror_solve(b))
    assert np.linalg.norm(residual) <= 1e-13 * np.linalg.norm(b)


def test_every_benchmarked_kernel_runs_traced():
    """Under spans.Tracer, a few draws of each of perfbench's four kernels
    (AR(1) N = 16 with the min-CCES and the exact kernel, 16 x 16 two-frame
    super-resolution with arjpo and the exact reference) record a
    sampler.step and a linop.q_apply span, the super-resolution ones a
    superres.target span, and the adaptive ones cg.solve spans; the exact
    ones solve in closed form and make no cg_solve call."""
    tracer_class = _spans().Tracer
    target, _, _ = ar1_target(16, 1.0, 0.8, stream=RngStream(1))
    model = make_model((16, 16), frames=2, decimation_factor=2, fwhm=1.0, snr_db=20.0)
    observations = synthesize(model, phantom((16, 16)), RngStream(3))
    runs = {
        "ar1-cces": lambda: run_chain(
            target, AdaptiveRjpoKernel(AdaptController(math.log(1e-2), MinCces())).draw, 6,
            None, RngStream(2), track_covariance=False),
        "ar1-epo": lambda: run_chain(target, epo_kernel().draw, 6, None, RngStream(2),
                                     track_covariance=False),
        "sr-arjpo": lambda: run_gibbs(
            model, observations, 4, 0,
            make_x_sampler("arjpo", alpha_t=0.99, epsilon0=1e-2).draw, RngStream(4)),
        "sr-exact": lambda: run_gibbs(model, observations, 4, 0,
                                      make_x_sampler("cholesky_epo").draw, RngStream(4)),
    }
    for name, run in runs.items():
        tracer = tracer_class()
        with tracer.installed():
            run()
        expected = {"sampler.step", "linop.q_apply"}
        if name.startswith("sr-"):
            expected.add("superres.target")
        adaptive = name in ("ar1-cces", "sr-arjpo")
        if adaptive:
            expected.add("cg.solve")
        assert expected <= set(tracer.names), (name, set(tracer.names))
        assert (tracer.cg_solves > 0) == adaptive, (name, tracer.cg_solves)
