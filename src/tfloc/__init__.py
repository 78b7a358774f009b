"""Frames adapted to covers of the finite time-frequency plane Z_L x Z_L."""

from .core import (
    Signal,
    Window,
    gauss_window,
    stft,
)
from .covers import (
    AdmissibilityReport,
    Cover,
    Symbol,
    gen_random_irregular,
    gen_regular_boxes,
    gen_wedge_cover,
    read_cover_json,
    sum_symbols,
    validate_cover,
    write_cover_json,
)
from .errors import (
    DimensionError,
    EmptyFrameError,
    InternalError,
    InvalidArgumentError,
    NotAFrameError,
    NumericError,
    PreconditionViolation,
    TflocError,
)
from .frames import (
    EigenFrame,
    FrameCertificate,
    SelectionPolicy,
    assemble_frame,
    epsilon_sweep,
    frame_certificate,
    norm_equivalence_constants,
    read_frame,
    reconstruct,
    select_eigenfunctions,
    write_frame,
)
from .gabor import (
    Lattice,
    LatticeGaborSystem,
    canonical_tight,
    gabor_eigenframe,
    gabor_multiplier,
)
from .locop import (
    Spectrum,
    assemble_locop,
    eigendecomp,
)

__version__ = "0.1.0"
