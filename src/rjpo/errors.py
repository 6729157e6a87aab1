"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration errors exit 1,
numerical errors exit 2, I/O errors (plain OSError) exit 3.
"""


class ConfigurationError(ValueError):
    """Invalid construction parameters (bad dimensions, weights, modes)."""


class NumericalBreakdownError(ArithmeticError):
    """Non-finite values or loss of positive-definiteness during a solve; the
    message names its CG iteration, chain step or Gibbs sweep."""
