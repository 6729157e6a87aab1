"""Reversible jump perturbation-optimization sampling for large Gaussians."""

__version__ = "0.1.0"
