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
    mask_pgm,
    measure,
    perimeter,
    read_mask_pgm,
)
from .locop import (
    LargenessCheck,
    LocOpSpectrum,
    ThetaField,
    ambiguity_moment,
    assemble_locop,
    check_largeness,
    plateau_violations,
    spectrum,
    theta,
)
from .noise import NoiseBatch, filter_batch, sample_noise
from .estimator import (
    AvgSpectrogram,
    MaskEstimate,
    average_spectrogram,
    estimate_mask,
)
from .harness import PRESETS, Scenario, run_simulate, run_spectrum, run_sweep
from .verify import double_orthogonality_defect, run_verify, theta_first_moment

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
