"""Frames adapted to covers of the finite time-frequency plane Z_L x Z_L.

The submodules and the names below load on first access (PEP 562), so a
process compiles and runs only the modules its work calls.
"""

from importlib import import_module

_EXPORTS = {
    "core": ("Signal", "Window", "gauss_window", "stft"),
    "covers": ("AdmissibilityReport", "Cover", "Symbol", "gen_random_irregular", "gen_regular_boxes",
               "gen_wedge_cover", "read_cover_json", "validate_cover", "write_cover_json"),
    "errors": ("EmptyFrameError", "InternalError", "InvalidArgumentError", "NotAFrameError", "NumericError",
               "PreconditionViolation", "TflocError"),
    "frames": ("EigenFrame", "FrameCertificate", "SelectionPolicy", "assemble_frame", "epsilon_sweep",
               "frame_certificate", "norm_equivalence_constants", "read_frame", "reconstruct",
               "select_eigenfunctions", "write_frame"),
    "gabor": ("Lattice", "LatticeGaborSystem", "canonical_tight", "gabor_eigenframe", "gabor_multiplier"),
    "locop": ("Spectrum", "assemble_locop", "eigendecomp"),
}
_SUBMODULES = ("cli", *_EXPORTS)
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A submodule or an exported name, imported on first access and then kept in the module."""
    if name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    elif name in _SOURCE:
        value = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *__all__})
