"""The check-09 table tool: both rules run a short pair, report the early dive
and restore the kernel; and the z-normalised rule's stall on a held-out pair,
which blocks making that rule the default."""

import math

import numpy as np
import pytest

import cces_table
import rjpo.adapt
from rjpo.adapt import AdaptController, AdaptiveRjpoKernel, MinCces
from rjpo.problems import ar1_target
from rjpo.rng import RngStream
from rjpo.sampler import perturb, run_chain


def test_cces_table_runs_both_rules_and_restores_the_step():
    """A 400-step pair prints one line and one markdown row per rule with a
    finite residual and the dive's figures (its lowest threshold and step,
    the step from which eps stays above 1e-5), and the z-normalised rule
    is patched in only inside its block."""
    original = rjpo.adapt.rjpo_step
    lines = []
    for name in ("current", "z-normalised"):
        (row,) = cces_table.table(name, [(31, 32)], 400, report=lines.append)
        assert math.isfinite(row["residual"]) and 0.0 < row["alpha"] <= 1.0
        assert 0.0 < row["dive_eps"] < 1e-2 and 1 <= row["dive_step"] <= 400
        assert row["dive_step"] < row["recovered_step"] <= 401
        assert (f"dive {row['dive_eps']:.1e} at step {row['dive_step']}, above 1e-05 "
                f"from step {row['recovered_step']}") in lines[-2]
        assert rjpo.adapt.rjpo_step is original
    assert [line.split(" (")[0].split(" |")[0] for line in lines] == [
        "current", "| current", "z-normalised", "| z-normalised"]
    with cces_table.rule("z-normalised"):
        assert rjpo.adapt.rjpo_step is cces_table.z_normalised_step


def test_z_normalised_step_recomputes_its_residual_at_the_proposal():
    """The rule's residual z - Q f is eta - Q x_hat with x_hat = f - previous,
    so a tight solve proposes the exact draw and accepts it."""
    target, _, _ = ar1_target(16, 1.0, 0.8, stream=RngStream(3))
    previous = np.random.default_rng(5).standard_normal(16)
    out = cces_table.z_normalised_step(target, previous, RngStream(9), 1e-12)
    eta = perturb(target, RngStream(9))
    assert np.allclose(target.precision.apply(out.proposal), eta, rtol=0, atol=1e-9)
    assert out.accepted and out.acceptance_probability > 0.999


@pytest.mark.xfail(strict=True, reason=(
    "under the z-normalised rule the min-CCES controller stalls loose on pair "
    "(931, 932): alpha near 0 leaves update_min_cces no drift and no slope to "
    "read (the FOUND lines in CHANGES.md on that rule's stall and its late "
    "recovery); this blocks ROADMAP item 1"))
def test_z_normalised_min_cces_leaves_its_loose_start():
    """Under the z-normalised rule, a MinCces chain from eps 1e-2 on check
    09's held-out pair (931, 932) moves within its first thousand steps: its
    mean alpha over steps 501-1000 is at least 0.5, as under the current
    rule (0.91 there)."""
    target, _, _ = ar1_target(128, 1.0, 0.8, stream=RngStream(931))
    kernel = AdaptiveRjpoKernel(AdaptController(math.log(1e-2), MinCces()))
    with cces_table.rule("z-normalised"):
        chain = run_chain(target, kernel, 1000, 0, RngStream(932), track_covariance=False)
    assert chain.alphas[500:].mean() >= 0.5
