"""Weighted edit distances.

Two production paths, both O(len1*len2) time and two-row working space:

* ``levenshtein_standard``  -- the classical weighted DP.
* ``levenshtein_ws_agnostic`` -- the same lattice with cheaper
  transitions along its last row and last column, where the exhausted
  string is treated as continuing with unbounded imagined whitespace:
  a trailing space on the other string is consumed for free, and any
  other trailing character costs min(delete it, replace it with the
  whitespace character) on the first string, min(insert it, replace the
  whitespace character with it) on the second.  So it equals the padded
  oracle under every cost model, symmetric or not.

The two reference oracles used for differential testing live in
``wsadist.oracles``; ``ws_agnostic_naive`` is also the ``naive-oracle``
``Algorithm``, whose entry imports that module on its first call.

Both production paths run the one DP kernel of ``wsadist.kernel``, C or,
when that cannot be built, interpreted (see ``kernel_backend()``).  On the
compiled kernel a 4000x4000-character pair takes 22-36 ms on a 2-vCPU VM.
"""

from enum import Enum

from .cost_model import CostModel, _Record, unit_model
from .kernel import edge_costs, score_document

DEFAULT_MAX_CELLS = 1 << 26


class SizeLimitError(ValueError):
    """Inputs exceed the documented size limit of the chosen algorithm."""


class Algorithm(Enum):
    STANDARD = "standard"
    WS_AGNOSTIC = "ws-agnostic"
    NAIVE_ORACLE = "naive-oracle"


class DistanceResult(_Record):
    """A distance ``cost`` by ``algorithm`` between strings of lengths
    ``len1`` and ``len2``."""

    __slots__ = __match_args__ = ("cost", "algorithm", "len1", "len2")

    def __init__(self, cost: int, algorithm: Algorithm, len1: int, len2: int):
        self._set(cost, algorithm, len1, len2)


def _check_cells(n1: int, n2: int, max_cells: int):
    if n1 * n2 > max_cells:
        raise SizeLimitError(f"{n1} x {n2} exceeds the {max_cells}-cell limit")


def _pair_distance(s1: str, s2: str, model: CostModel | None, max_cells: int,
                   ws_agnostic: bool) -> int:
    """``levenshtein_ws_agnostic``, or without ``ws_agnostic``
    ``levenshtein_standard``, on the pair as a document of two lines."""
    model = model if model is not None else unit_model()
    _check_cells(len(s1), len(s2), max_cells)
    # The kernel scores a pair with an empty line too, but building the cost
    # tables costs more than this sum of the other string's edge costs.
    if not (s1 and s2):
        del_cost, ins_cost = edge_costs(ws_agnostic)
        return sum(del_cost(model, c) for c in s1) + sum(ins_cost(model, c) for c in s2)
    return score_document(s1 + s2, len(s1), len(s1), None, 1, model, ws_agnostic, 0.0)[2][0]


def levenshtein_standard(
    s1: str, s2: str, model: CostModel | None = None, *, max_cells: int = DEFAULT_MAX_CELLS
) -> int:
    """Classical weighted Levenshtein distance."""
    return _pair_distance(s1, s2, model, max_cells, False)


def levenshtein_ws_agnostic(
    s1: str, s2: str, model: CostModel | None = None, *, max_cells: int = DEFAULT_MAX_CELLS
) -> int:
    """Weighted Levenshtein distance with both strings treated as padded
    by infinite imagined trailing whitespace."""
    return _pair_distance(s1, s2, model, max_cells, True)


def _paired_distances(left: str, right: str, brk, pairs: int, model: CostModel,
                      ws_agnostic: bool, mode):
    """``levenshtein_ws_agnostic`` (or, without ``ws_agnostic``,
    ``levenshtein_standard``) of each line of ``left`` against the line of
    ``right`` at its index, for ``pairs`` pairs, the lines of each text
    ending at the character ``brk`` (None: each text is one line) and a
    line past a text's last being empty, normalized in ``mode``, under the
    default cell limit, as a sequence of ints.  One kernel call scores
    them all, the two texts its two streams; then the first pair over the
    limit, if any, raises ``SizeLimitError``."""
    status, _, dists, _ = score_document(left + right, len(left), len(left), brk, pairs, model,
                                         ws_agnostic, 0.0, mode, max_cells=DEFAULT_MAX_CELLS)
    over = status.find(2)
    if over >= 0:
        n1, n2 = (len(text.split(brk)[over] if brk else text) for text in (left, right))
        _check_cells(n1, n2, DEFAULT_MAX_CELLS)
    return dists


def _naive_oracle(s1: str, s2: str, model: CostModel | None = None) -> int:
    """``ws_agnostic_naive``, imported on the first call: no production
    path loads the oracles."""
    from .oracles import ws_agnostic_naive

    return ws_agnostic_naive(s1, s2, model)


# The one table from an algorithm to its function: ``distance()`` and
# ``wsadist dist --mode naive-oracle`` look it up on each call.
_DISPATCH = {
    Algorithm.STANDARD: levenshtein_standard,
    Algorithm.WS_AGNOSTIC: levenshtein_ws_agnostic,
    Algorithm.NAIVE_ORACLE: _naive_oracle,
}


def distance(
    s1: str,
    s2: str,
    model: CostModel | None = None,
    algorithm: Algorithm = Algorithm.WS_AGNOSTIC,
) -> DistanceResult:
    """Convenience wrapper returning the cost together with provenance."""
    cost = _DISPATCH[algorithm](s1, s2, model)
    return DistanceResult(cost=cost, algorithm=algorithm, len1=len(s1), len2=len(s2))
