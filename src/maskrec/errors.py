"""Exception taxonomy shared by all maskrec modules: one class per exit code.

The CLI maps these onto process exit codes: bad input exits with 2, a
numerical or model failure with 3, and a failed verification run with 1
(see ``maskrec.cli``).
"""


class MaskrecError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(MaskrecError):
    """Invalid parameter, label, scenario, or mismatched shape."""


class NumericError(MaskrecError):
    """A numerical routine failed, a bound was violated, or the input is degenerate."""
