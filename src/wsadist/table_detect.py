"""Table-region detection in plaintext documents.

Adjacent lines of a table tend to share their layout, so after shape
normalization their trailing-whitespace-agnostic distance is small
relative to line weight.  Detection is adjacent-pair thresholding:
maximal runs of consecutive non-blank lines whose pairwise similarity
stays at or above a threshold, with a minimum run length.  Blank lines
(empty, or all ``str.isspace``) are hard separators.
"""

import re
from itertools import count
from operator import index

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


def _runs(joins: bytes, span: int):
    """The ``(start, stop)`` of each maximal run of ``span`` or more 1 bytes
    in ``joins``, in order."""
    if span > len(joins):  # no run fits, and a counted repeat has a limit
        return ()
    # the leading literal finds each run at memchr speed, which a bare counted
    # repeat does not, and the lookbehind lets a match start only where a run
    # does: a run too short is counted once, not again from each of its bytes
    return map(re.Match.span, re.finditer(rb"\x01(?<!\x01\x01)\x01{%d,}" % (span - 1), joins))


# the kernel's status of a pair -- 0 for a blank line, 1 scored, 2 over the
# cell limit, 3 scored below the threshold -- as a join at threshold 0, and
# above it
_JOINS_AT_0 = bytes.maketrans(b"\2\3", b"\1\1")
_JOINS = bytes.maketrans(b"\2\3", b"\0\0")


def _joined(lines, tab_width: int):
    """``lines`` as one text for ``_regions``: each tab-expanded on its own
    and joined at a break that no line holds, with the break and the
    number of adjacent pairs."""
    lines = list(lines)
    pairs = max(len(lines) - 1, 0)
    brk, text = "\n", "\n".join(lines)
    if text.count(brk) == pairs:
        # expandtabs restarts its column at each "\n"
        return text.expandtabs(tab_width), brk, pairs
    # a line holds a "\n": break at a character that no expanded line holds
    # and that normalizing keeps
    lines = [line.expandtabs(tab_width) for line in lines]
    held = set().union(*lines)
    brk = next(c for c in map(chr, count()) if c not in held and not c.isalnum())
    return brk.join(lines), brk, pairs


def _regions(text: str, brk: str, pairs: int, config: DetectConfig) -> list[TableRegion]:
    """``detect_tables`` on a document given as ``text``, already
    tab-expanded, whose lines end at ``brk``: the regions among its first
    ``pairs`` + 1 lines.  A break after the last of them is not read."""
    threshold = config.threshold
    # pair j is lines j and j + 1: the document is stream A, and from its
    # second line on stream B
    status, heavier, dists, _ = score_document(text, len(text), text.find(brk) + 1, brk, pairs,
                                               config.model, True, threshold, config.mode,
                                               blank=True, max_cells=DEFAULT_MAX_CELLS)
    joins = status.translate(_JOINS if threshold > 0 else _JOINS_AT_0)
    if threshold > 0 and 2 in status:  # an over-limit pair of weightless lines scores 1.0
        joins = bytes(joined or scored == 2 and not heavier[j]
                      for j, (joined, scored) in enumerate(zip(joins, status)))
    regions: list[TableRegion] = []
    # pair j joins lines j and j + 1, and a run of min_rows - 1 joined pairs
    # or more is a region
    for start, stop in _runs(joins, config.min_rows - 1):
        sims = [1.0 if heavier[j] == 0 else 0.0 if status[j] == 2
                else max(0.0, 1.0 - dists[j] / heavier[j]) for j in range(start, stop)]
        regions.append(TableRegion(start, stop, sum(sims) / (stop - start)))
    return regions


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
    filled lines joins, and above it a scored pair joins unless it falls
    below the threshold.  A scan of the join flags finds the regions, and
    only their pairs' similarities are computed."""
    config = config if config is not None else DetectConfig()
    return _regions(*_joined(lines, config.tab_width), config)
