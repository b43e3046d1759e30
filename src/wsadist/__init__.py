"""Trailing-whitespace-agnostic weighted Levenshtein distance, shape
normalization, and plaintext table detection."""

from .cost_model import (
    CostModel,
    ModelError,
    ModelParseError,
    ModelValidationError,
    appendix_model,
    load_model,
    load_model_file,
    serialize_model,
    unit_model,
)
from .distance import (
    Algorithm,
    DistanceResult,
    SizeLimitError,
    distance,
    levenshtein_standard,
    levenshtein_ws_agnostic,
)
from .kernel import kernel_backend
from .normalizer import NormalizationMode, normalize_line, normalize_lines

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "CostModel",
    "DetectConfig",
    "DistanceResult",
    "ModelError",
    "ModelParseError",
    "ModelValidationError",
    "NormalizationMode",
    "SizeLimitError",
    "TableRegion",
    "appendix_model",
    "detect_tables",
    "distance",
    "kernel_backend",
    "levenshtein_standard",
    "levenshtein_ws_agnostic",
    "line_whitespace_cost",
    "load_model",
    "load_model_file",
    "normalize_line",
    "normalize_lines",
    "row_similarity",
    "serialize_model",
    "unit_model",
    "ws_agnostic_naive",
    "ws_agnostic_recursive_unit",
]


_DETECTION = ("DetectConfig", "TableRegion", "detect_tables", "line_whitespace_cost",
              "row_similarity")
_ORACLES = ("ws_agnostic_naive", "ws_agnostic_recursive_unit")


def __getattr__(name):
    """Detection's names, which ``wsadist dist`` does not run, and the
    reference oracles, which no production path runs, from their modules,
    imported on first access.  ``distance`` is bound at import, since the
    function shadows its submodule's name."""
    if name in _DETECTION:
        from . import table_detect as module
    elif name in _ORACLES:
        from . import oracles as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
