"""Exception taxonomy shared by all maskrec modules.

The CLI maps these onto process exit codes: configuration problems exit
with 2, numerical/model failures with 3, and a failed verification run
with 1 (see ``maskrec.cli``).
"""


class MaskrecError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(MaskrecError):
    """Invalid parameter, label, or scenario configuration."""


class DimensionError(MaskrecError):
    """Mismatched signal length, grid, or matrix shape."""


class NumericError(MaskrecError):
    """A numerical routine (e.g. the eigensolver) failed."""


class ModelError(MaskrecError):
    """A quantity violated a model-level bound beyond tolerance."""


class DegenerateInputError(MaskrecError):
    """Input is degenerate (e.g. identically-zero averaged spectrograms)."""
