"""Table-region detection in plaintext documents.

Adjacent lines of a table tend to share their layout, so after shape
normalization their trailing-whitespace-agnostic distance is small
relative to line weight.  Detection is adjacent-pair thresholding:
maximal runs of consecutive non-blank lines whose pairwise similarity
stays at or above a threshold, with a minimum run length.  Blank lines
are hard separators.
"""

from __future__ import annotations

from itertools import chain

from .cost_model import CostModel, _Record, appendix_model
from .distance import DEFAULT_MAX_CELLS, levenshtein_ws_agnostic
from .kernel import score_document
from .normalizer import NormalizationMode


class TableRegion(_Record):
    """Lines ``start_line`` to ``end_line``, 0-based and both inclusive,
    with ``score``, the mean adjacent-row similarity, in [0, 1]."""

    __slots__ = __match_args__ = ("start_line", "end_line", "score")

    def __init__(self, start_line: int, end_line: int, score: float):
        self._set(start_line, end_line, score)


class DetectConfig(_Record):
    """Detection's settings; ``model`` defaults to ``appendix_model()``."""

    __slots__ = __match_args__ = ("threshold", "min_rows", "mode", "model", "tab_width")

    def __init__(self, threshold: float = 0.5, min_rows: int = 3,
                 mode: NormalizationMode = NormalizationMode.CASED,
                 model: CostModel | None = None, tab_width: int = 8):
        self._set(threshold, min_rows, mode, appendix_model() if model is None else model,
                  tab_width)
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        if min_rows < 2:
            raise ValueError(f"min_rows must be >= 2, got {min_rows}")
        if not 1 <= tab_width < 1 << 31:  # str.expandtabs takes a C int
            raise ValueError(f"tab_width must be >= 1 and < 2**31, got {tab_width}")


def line_whitespace_cost(line: str, model: CostModel) -> int:
    """Cost of reconciling a whole line with pure imagined whitespace,
    each character at its deletion-side ``whitespace_cost``: the line's
    own cost against padding, whichever side of a pair it is on."""
    return sum(model.whitespace_cost(c) for c in line)


def row_similarity(line1: str, line2: str, model: CostModel | None = None) -> float:
    """Similarity in [0, 1]: 1 - d/D with d the ws-agnostic distance and
    D the heavier line's whitespace cost.  Two blank (or all-whitespace)
    lines are fully similar.  Clamped at 0: under cost models with
    effectively-forbidden replacements, d can exceed D.
    """
    model = model if model is not None else appendix_model()
    heavier = max(line_whitespace_cost(line1, model), line_whitespace_cost(line2, model))
    if heavier == 0:
        return 1.0
    return max(0.0, 1.0 - levenshtein_ws_agnostic(line1, line2, model) / heavier)


def _pair_scores(lines: list[str], mode: NormalizationMode, model: CostModel,
                 threshold: float):
    """For each adjacent pair of the tab-expanded ``lines``, in order, its
    score with its d and D: the score is None when either line is blank,
    else ``row_similarity``'s value on the normalized lines, or 0.0 when
    the pair is too long for the distance's cell limit.  d is None when
    the pair was not scored, or when the kernel ruled it out at
    ``threshold``: its score is then sure to be below ``threshold``, and
    given as 0.0.  So d, and the score, are exact for every pair that can
    reach ``threshold``.  One ``score_document`` call weighs every line
    and scores every pair that needs it.
    """
    # normalizing keeps whitespace as it is
    lengths = [len(line) for line in lines]
    blank = [not line.strip() for line in lines]
    want = bytes(not (blank1 or blank2) and n1 * n2 <= DEFAULT_MAX_CELLS
                 for blank1, blank2, n1, n2 in zip(blank, blank[1:], lengths, lengths[1:]))
    weights, dists = score_document(lines, want, model, True, threshold, mode)
    for j, wanted in enumerate(want):
        heavier = max(weights[j], weights[j + 1])
        d = dists[j] if wanted and dists[j] >= 0 else None
        if blank[j] or blank[j + 1]:
            yield None, d, heavier
        elif heavier == 0:
            yield 1.0, d, heavier
        elif d is None:
            yield 0.0, d, heavier
        else:
            yield max(0.0, 1.0 - d / heavier), d, heavier


def detect_tables(lines, config: DetectConfig | None = None) -> list[TableRegion]:
    """Locate table regions in a document given as a sequence of lines.

    Lines are tab-expanded and normalized before comparison.  Adjacent
    lines join when neither is blank and their similarity reaches the
    threshold; a pair too long for the distance's cell limit is scored
    0.0.  Returned regions are disjoint, sorted by start line, and each
    spans at least ``config.min_rows`` lines.
    """
    config = config if config is not None else DetectConfig()
    expanded = [line.expandtabs(config.tab_width) for line in lines]
    scores = (sim for sim, _, _ in _pair_scores(expanded, config.mode, config.model,
                                                config.threshold))

    regions: list[TableRegion] = []
    sims: list[float] = []  # the joined pairs of the run ending at line i - 1
    # the sentinel after the last pair closes the final run
    for i, sim in enumerate(chain(scores, [None]), 1):
        if sim is not None and sim >= config.threshold:
            sims.append(sim)
            continue
        if len(sims) + 1 >= config.min_rows:
            regions.append(TableRegion(i - 1 - len(sims), i - 1, sum(sims) / len(sims)))
        sims = []
    return regions
