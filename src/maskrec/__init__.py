"""maskrec: recover binary time-frequency masks from filtered white noise."""

from .errors import ConfigurationError, MaskrecError, NumericError
from .tfcore import (
    TFGrid,
    Window,
    istft,
    make_window,
    stft,
    tf_shift,
)
from .maskgeom import (
    ErrorReport,
    Mask,
    dilate,
    disc_mask,
    error_report,
    make_mask,
    measure,
    perimeter,
    read_mask_pgm,
    write_mask_pgm,
)
from .locop import (
    LargenessCheck,
    LocOpSpectrum,
    ThetaField,
    ambiguity_moment,
    assemble_locop,
    check_largeness,
    double_orthogonality_defect,
    plateau_violations,
    spectrum,
    theta,
    theta_first_moment,
)
from .noise import NoiseBatch, complexify, eigen_coefficients, filter_batch, sample_noise
from .estimator import (
    AvgSpectrogram,
    MaskEstimate,
    average_spectrogram,
    estimate_mask,
)
from .harness import PRESETS, Scenario, run_simulate, run_spectrum, run_sweep, run_verify

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
