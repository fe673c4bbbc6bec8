"""Top-level verification API: :func:`verify` and result/report types."""

from .keys import canonical_key, config_dict
from .reporting import render_matrix, render_rows
from .results import VerificationResult
from .verifier import METHODS, verify

__all__ = [
    "canonical_key",
    "config_dict",
    "render_matrix",
    "render_rows",
    "VerificationResult",
    "METHODS",
    "verify",
]
