"""Exception taxonomy shared by the library and the CLI.

Every error carries a stable machine-readable ``code`` (used by the CLI for
``error.json``) and an optional ``context`` dict with structured detail.
"""

from __future__ import annotations


class TflocError(Exception):
    """Base class; ``code`` is the machine-readable error kind."""

    code = "internal-error"

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context


class InvalidArgumentError(TflocError, ValueError):
    code = "invalid-argument"


class NumericError(TflocError, ArithmeticError):
    code = "numeric-error"


class EmptyFrameError(TflocError):
    code = "empty-frame"


class NotAFrameError(TflocError):
    code = "not-a-frame"


class PreconditionViolation(TflocError):
    code = "precondition-violation"


class InternalError(TflocError):
    code = "internal-error"
