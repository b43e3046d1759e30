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
    distance,
    levenshtein_standard,
    levenshtein_ws_agnostic,
)
from .kernel import kernel_backend
from .normalizer import NormalizationMode, normalize_line, normalize_lines
from .oracles import SizeLimitError, ws_agnostic_naive, ws_agnostic_recursive_unit
from .table_detect import (
    DetectConfig,
    TableRegion,
    detect_tables,
    line_whitespace_cost,
    row_similarity,
)

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
