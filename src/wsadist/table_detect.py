"""Table-region detection in plaintext documents.

Adjacent lines of a table tend to share their layout, so after shape
normalization their trailing-whitespace-agnostic distance is small
relative to line weight.  Detection is adjacent-pair thresholding:
maximal runs of consecutive non-blank lines whose pairwise similarity
stays at or above a threshold, with a minimum run length.  Blank lines
are hard separators.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from itertools import chain

from .cost_model import CostModel, appendix_model
from .distance import DEFAULT_MAX_CELLS, SizeLimitError, _check_cells, levenshtein_ws_agnostic
from .kernel import Alphabet, alphabet_costs, dp_encoded, encode
from .normalizer import NormalizationMode, normalize_line

# The most symbols one span's alphabet holds, so that its replacement
# table stays within 256 * 256 * 8 bytes = 512 KiB.
_MAX_SYMBOLS = 256


@dataclass(frozen=True)
class TableRegion:
    start_line: int  # 0-based, inclusive
    end_line: int    # 0-based, inclusive
    score: float     # mean adjacent-row similarity, in [0, 1]


@dataclass(frozen=True)
class DetectConfig:
    threshold: float = 0.5
    min_rows: int = 3
    mode: NormalizationMode = NormalizationMode.CASED
    model: CostModel = field(default_factory=appendix_model)
    tab_width: int = 8

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold}")
        if self.min_rows < 2:
            raise ValueError(f"min_rows must be >= 2, got {self.min_rows}")
        if self.tab_width < 1:
            raise ValueError(f"tab_width must be >= 1, got {self.tab_width}")


def line_whitespace_cost(line: str, model: CostModel) -> int:
    """Cost of reconciling a whole line with pure imagined whitespace."""
    return sum(model.whitespace_cost(c) for c in line)


def _similarity(heavier: int, distance: Callable[[], int]) -> float:
    """1 - d/D, with D = ``heavier`` the heavier line's whitespace cost and
    d = ``distance()``; 1.0, without computing d, when D is 0."""
    if heavier == 0:
        return 1.0
    return max(0.0, 1.0 - distance() / heavier)


def row_similarity(line1: str, line2: str, model: CostModel | None = None) -> float:
    """Similarity in [0, 1]: 1 - d/D with d the ws-agnostic distance and
    D the heavier line's whitespace cost.  Two blank (or all-whitespace)
    lines are fully similar.  Clamped at 0: under cost models with
    effectively-forbidden replacements, d can exceed D.
    """
    model = model if model is not None else appendix_model()
    heavier = max(
        line_whitespace_cost(line1, model), line_whitespace_cost(line2, model)
    )
    return _similarity(heavier, lambda: levenshtein_ws_agnostic(line1, line2, model))


def _pair_score(above: str, line: str, similarity: Callable[[], float]):
    """What detection makes of an adjacent pair: None when either line is
    blank, else ``similarity()``, or 0.0 when the pair is too long for the
    distance's cell limit."""
    if not (above.strip() and line.strip()):
        return None
    try:
        return similarity()
    except SizeLimitError:
        return 0.0


def _pair_scores(lines: list[str], model: CostModel):
    """The score of each adjacent pair of ``lines``, in order.

    Lines are encoded in spans that share one alphabet, its cost tables
    and one whitespace cost per line.  A span ends before the line that
    would take its alphabet past _MAX_SYMBOLS, and the next one starts
    at the line before that, so every pair lies in one span; a pair whose
    two lines alone hold more symbols is scored on their own alphabets.
    """
    start = 0
    while start < len(lines) - 1:
        alphabet = Alphabet()
        codes = [encode(lines[start], alphabet)]
        for end in range(start + 1, len(lines)):
            known = len(alphabet)
            code = encode(lines[end], alphabet)
            if len(alphabet) > _MAX_SYMBOLS:
                while len(alphabet) > known:
                    alphabet.popitem()
                break
            codes.append(code)
        if len(codes) == 1:
            above, line = lines[start], lines[start + 1]
            yield _pair_score(above, line, partial(row_similarity, above, line, model))
            start += 1
            continue
        indel, ws, rep, dearest = alphabet_costs(alphabet, model)
        weights = [sum(map(ws.__getitem__, code)) for code in codes]
        for j in range(1, len(codes)):
            above, line = lines[start + j - 1], lines[start + j]
            code1, code2 = codes[j - 1], codes[j]

            def distance():
                _check_cells(above, line, DEFAULT_MAX_CELLS)
                return dp_encoded(code1, code2, indel, ws, indel, ws, rep, dearest, True)

            heavier = max(weights[j - 1], weights[j])
            yield _pair_score(above, line, partial(_similarity, heavier, distance))
        start += len(codes) - 1


def detect_tables(lines, config: DetectConfig | None = None) -> list[TableRegion]:
    """Locate table regions in a document given as a sequence of lines.

    Lines are tab-expanded and normalized before comparison.  Adjacent
    lines join when neither is blank and their similarity reaches the
    threshold; a pair too long for the distance's cell limit is scored
    0.0.  Returned regions are disjoint, sorted by start line, and each
    spans at least ``config.min_rows`` lines.
    """
    config = config if config is not None else DetectConfig()
    prepared = [
        normalize_line(line.expandtabs(config.tab_width), config.mode)
        for line in lines
    ]

    regions: list[TableRegion] = []
    sims: list[float] = []  # the joined pairs of the run ending at line i - 1
    # the sentinel after the last pair closes the final run
    for i, sim in enumerate(chain(_pair_scores(prepared, config.model), [None]), 1):
        if sim is not None and sim >= config.threshold:
            sims.append(sim)
            continue
        if len(sims) + 1 >= config.min_rows:
            regions.append(TableRegion(i - 1 - len(sims), i - 1, sum(sims) / len(sims)))
        sims = []
    return regions
