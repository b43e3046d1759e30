"""Table-region detection in plaintext documents.

Adjacent lines of a table tend to share their layout, so after shape
normalization their trailing-whitespace-agnostic distance is small
relative to line weight.  Detection is adjacent-pair thresholding:
maximal runs of consecutive non-blank lines whose pairwise similarity
stays at or above a threshold, with a minimum run length.  Blank lines
(empty, or all ``str.isspace``) are hard separators.
"""

from __future__ import annotations

from itertools import repeat
from operator import and_, index, mul

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
        min_rows, tab_width = index(min_rows), index(tab_width)  # TypeError unless integers
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
    D the heavier line's whitespace cost; only lines that both weigh
    nothing (D = 0) are fully similar, not a tab against "".  Clamped at
    0: under cost models with effectively-forbidden replacements, d can
    exceed D."""
    model = model if model is not None else appendix_model()
    heavier = max(line_whitespace_cost(line1, model), line_whitespace_cost(line2, model))
    if heavier == 0:
        return 1.0
    return max(0.0, 1.0 - levenshtein_ws_agnostic(line1, line2, model) / heavier)


def _pair_scores(lines: list[str], mode: NormalizationMode, model: CostModel,
                 threshold: float):
    """Every adjacent pair of the tab-expanded ``lines`` scored in whole-list
    passes and one ``score_document`` call, as ``(filled, want, weights,
    dists, sims)``: ``filled[i]`` (bytes) is 1 unless line i is blank;
    ``want[j]`` (bytes) is 1 when lines j and j + 1 are filled and within
    the cell limit, the pairs the kernel scores; ``weights`` is each line's
    D, ``dists`` each wanted pair's d, or -1 where the kernel ruled it out
    at ``threshold``, sure to score below it; ``sims[j]`` is None for a pair
    with a blank line, 1.0 when D = 0, 0.0 when unwanted or ruled out, else
    ``row_similarity``'s value on the normalized lines."""
    # normalizing keeps whitespace as it is, and each line's length
    lengths = list(map(len, lines))
    filled = bytes(map(bool, map(str.strip, lines)))
    both = want = bytes(map(and_, filled, filled[1:]))
    if max(map(mul, lengths, lengths[1:]), default=0) > DEFAULT_MAX_CELLS:
        want = bytes(wanted and n1 * n2 <= DEFAULT_MAX_CELLS
                     for wanted, n1, n2 in zip(both, lengths, lengths[1:]))
    weights, dists = score_document(lines, lengths, want, model, True, threshold, mode)
    # a comprehension takes each pair's max faster than map(max, ...)
    heavier = [w1 if w1 > w2 else w2 for w1, w2 in zip(weights, weights[1:])]
    sims = [None if not pair else 1.0 if weight == 0 else 0.0 if not wanted or d < 0
            else max(0.0, 1.0 - d / weight)
            for pair, wanted, d, weight in zip(both, want, dists, heavier)]
    return filled, want, weights, dists, sims


def detect_tables(lines, config: DetectConfig | None = None) -> list[TableRegion]:
    """Locate table regions in a document given as a sequence of lines.

    Lines are tab-expanded and normalized before comparison.  Adjacent
    lines join when neither is blank and their similarity reaches the
    threshold; a pair too long for the distance's cell limit is scored
    0.0.  Returned regions are disjoint, sorted by start line, and each
    spans at least ``config.min_rows`` lines, its score the mean of its
    pairs' similarities, summed in order."""
    config = config if config is not None else DetectConfig()
    expanded = list(map(str.expandtabs, lines, repeat(config.tab_width)))
    *_, sims = _pair_scores(expanded, config.mode, config.model, config.threshold)
    threshold, span = config.threshold, config.min_rows - 1
    # pair j joins lines j and j + 1; a run of joined pairs ends at each break
    breaks = [j for j, sim in enumerate(sims) if sim is None or sim < threshold]
    breaks.append(len(sims))
    regions: list[TableRegion] = []
    start = 0
    for stop in breaks:
        if stop - start >= span:
            regions.append(TableRegion(start, stop, sum(sims[start:stop]) / (stop - start)))
        start = stop + 1
    return regions
