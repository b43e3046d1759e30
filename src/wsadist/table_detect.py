"""Table-region detection in plaintext documents.

Adjacent lines of a table tend to share their layout, so after shape
normalization their trailing-whitespace-agnostic distance is small
relative to line weight.  Detection is adjacent-pair thresholding:
maximal runs of consecutive non-blank lines whose pairwise similarity
stays at or above a threshold, with a minimum run length.  Blank lines
(empty, or all ``str.isspace``) are hard separators.
"""

import re
from itertools import repeat
from operator import index, mul

from .cost_model import CostModel, _Record, appendix_model
from .distance import DEFAULT_MAX_CELLS, levenshtein_ws_agnostic
from .kernel import reached, score_document
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


def _and(flags1: bytes, flags2: bytes) -> bytes:
    """The pairwise AND of two strings of 0/1 bytes of one length, as one
    integer AND; any one byte order serves, the AND being bytewise."""
    return (int.from_bytes(flags1, "big") & int.from_bytes(flags2, "big")).to_bytes(
        len(flags1), "big")


def _runs(joins: bytes, span: int):
    """The ``(start, stop)`` of each maximal run of ``span`` or more 1 bytes
    in ``joins``, in order."""
    if span > len(joins):  # no run fits, and a counted repeat has a limit
        return ()
    # the leading literal finds each run at memchr speed, which a bare counted
    # repeat does not, and the lookbehind lets a match start only where a run
    # does: a run too short is counted once, not again from each of its bytes
    return map(re.Match.span, re.finditer(rb"\x01(?<!\x01\x01)\x01{%d,}" % (span - 1), joins))


def _pair_scores(lines: list[str], mode: NormalizationMode, model: CostModel,
                 threshold: float):
    """Every adjacent pair of the tab-expanded ``lines`` scored in whole-list
    passes and one ``score_document`` call, as ``(both, want, weights,
    dists)``: ``both[j]`` (bytes) is 1 when neither line j nor line j + 1
    is blank; ``want[j]`` (bytes) is 1 when ``both[j]`` is and the pair is
    within the cell limit, the pairs the kernel scores; ``weights`` is each
    line's D, and ``dists`` each wanted pair's d, or -1 exactly where its
    ``1.0 - d / D``, D the heavier line's weight, falls below
    ``threshold``, and 0 for the other pairs."""
    # normalizing keeps whitespace as it is, and each line's length
    lengths = list(map(len, lines))
    filled = bytes(map(bool, map(str.strip, lines)))
    both = want = _and(filled[:-1], filled[1:])
    if (max(lengths, default=0) ** 2 > DEFAULT_MAX_CELLS
            and max(map(mul, lengths, lengths[1:]), default=0) > DEFAULT_MAX_CELLS):
        want = bytes(wanted and n1 * n2 <= DEFAULT_MAX_CELLS
                     for wanted, n1, n2 in zip(both, lengths, lengths[1:]))
    weights, dists = score_document(lines, lengths, want, model, True, threshold, mode)
    return both, want, weights, dists


def detect_tables(lines, config: DetectConfig | None = None) -> list[TableRegion]:
    """Locate table regions in a document given as a sequence of lines.

    Lines are tab-expanded and normalized before comparison.  Adjacent
    lines join when neither is blank and their similarity reaches the
    threshold; a pair too long for the distance's cell limit is scored
    0.0, or 1.0 when both lines weigh nothing.  Returned regions are
    disjoint, sorted by start line, and each spans at least
    ``config.min_rows`` lines, its score the mean of its pairs'
    similarities, summed in order.

    The joins come off the kernel's verdict, with no per-pair Python
    unless a pair is over the cell limit: at threshold 0 every pair of
    filled lines joins, and above it a wanted pair joins unless it reads
    -1.  A scan of the join flags finds the regions, and only their
    pairs' similarities are computed."""
    config = config if config is not None else DetectConfig()
    expanded = list(map(str.expandtabs, lines, repeat(config.tab_width)))
    threshold = config.threshold
    both, want, weights, dists = _pair_scores(expanded, config.mode, config.model, threshold)
    joins = both
    if threshold > 0:
        joins = _and(want, reached(dists))
        if want != both:  # an over-limit pair of lines that weigh nothing scores 1.0
            joins = bytes(joined or pair and not weights[j] and not weights[j + 1]
                          for j, (joined, pair) in enumerate(zip(joins, both)))
    regions: list[TableRegion] = []
    # pair j joins lines j and j + 1, and a run of min_rows - 1 joined pairs
    # or more is a region
    for start, stop in _runs(joins, config.min_rows - 1):
        sims = []
        for j in range(start, stop):
            w1, w2 = weights[j], weights[j + 1]
            heavier = w1 if w1 > w2 else w2
            sims.append(1.0 if heavier == 0 else 0.0 if not want[j]
                        else max(0.0, 1.0 - dists[j] / heavier))
        regions.append(TableRegion(start, stop, sum(sims) / (stop - start)))
    return regions
