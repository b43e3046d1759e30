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
  oracle below under every cost model, symmetric or not.

Two deliberately independent reference paths used for differential
testing:

* ``ws_agnostic_naive`` -- minimum of the classical distance over all
  trailing-space paddings of both inputs (pure Python, full matrix).
* ``ws_agnostic_recursive_unit`` -- memoized transcription of the
  four-case recurrence under unit costs (pure Python).  It ignores any
  cost model, so it is not an ``Algorithm``: call it directly.

Both production paths run the DP kernel of ``wsadist.kernel``: C,
compiled on first use with the system C compiler into a per-user cache
directory, or, when that fails, the same recurrence interpreted, after
one logged warning (see ``kernel_backend()``).  On the compiled kernel a
4000x4000-character pair takes 22-36 ms on a 2-vCPU VM.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .cost_model import CostModel, unit_model
from .kernel import dp

DEFAULT_MAX_CELLS = 1 << 26
DEFAULT_NAIVE_LIMIT = 512
DEFAULT_RECURSIVE_LIMIT = 64


class SizeLimitError(ValueError):
    """Inputs exceed the documented size limit of the chosen algorithm."""


class Algorithm(Enum):
    STANDARD = "standard"
    WS_AGNOSTIC = "ws-agnostic"
    NAIVE_ORACLE = "naive-oracle"


@dataclass(frozen=True)
class DistanceResult:
    cost: int
    algorithm: Algorithm
    len1: int
    len2: int


def _check_cells(s1: str, s2: str, max_cells: int):
    if len(s1) * len(s2) > max_cells:
        raise SizeLimitError(
            f"{len(s1)} x {len(s2)} exceeds the {max_cells}-cell limit"
        )


def levenshtein_standard(
    s1: str, s2: str, model: CostModel | None = None, *, max_cells: int = DEFAULT_MAX_CELLS
) -> int:
    """Classical weighted Levenshtein distance."""
    model = model if model is not None else unit_model()
    _check_cells(s1, s2, max_cells)
    if not s1:
        return sum(model.indel(c) for c in s2)
    if not s2:
        return sum(model.indel(c) for c in s1)
    return dp(s1, s2, model, False)


def levenshtein_ws_agnostic(
    s1: str, s2: str, model: CostModel | None = None, *, max_cells: int = DEFAULT_MAX_CELLS
) -> int:
    """Weighted Levenshtein distance with both strings treated as padded
    by infinite imagined trailing whitespace."""
    model = model if model is not None else unit_model()
    _check_cells(s1, s2, max_cells)
    # An empty string is already at the imagined-whitespace suffix, so
    # every character of the other string is charged its whitespace cost
    # on its side.
    if not s1:
        return sum(model.whitespace_insert_cost(c) for c in s2)
    if not s2:
        return sum(model.whitespace_cost(c) for c in s1)
    return dp(s1, s2, model, True)


def _full_matrix_standard(s1: str, s2: str, model: CostModel):
    """Full-matrix classical DP in plain Python, independent of the
    production kernel.  Returns the whole lattice."""
    n1, n2 = len(s1), len(s2)
    d = [[0] * (n2 + 1) for _ in range(n1 + 1)]
    for i in range(1, n1 + 1):
        d[i][0] = d[i - 1][0] + model.indel(s1[i - 1])
    for j in range(1, n2 + 1):
        d[0][j] = d[0][j - 1] + model.indel(s2[j - 1])
    for i in range(1, n1 + 1):
        row = d[i]
        above = d[i - 1]
        c1 = s1[i - 1]
        del_cost = model.indel(c1)
        for j in range(1, n2 + 1):
            c2 = s2[j - 1]
            row[j] = min(
                above[j] + del_cost,
                row[j - 1] + model.indel(c2),
                above[j - 1] + model.replace(c1, c2),
            )
    return d


def ws_agnostic_naive(
    s1: str,
    s2: str,
    model: CostModel | None = None,
    *,
    max_total_len: int = DEFAULT_NAIVE_LIMIT,
    pad_limit: int | None = None,
) -> int:
    """Reference oracle: min over paddings p, q in [0, pad_limit] of the
    classical distance between s1 + p spaces and s2 + q spaces.

    The classical DP value for (s1 + p spaces, s2 + q spaces) is the
    (len1+p, len2+q) cell of the lattice for the maximally padded pair,
    so one full matrix covers every padding.  pad_limit defaults to
    len1 + len2: no optimal alignment consumes more imagined whitespace
    than there are real characters.
    """
    model = model if model is not None else unit_model()
    if len(s1) + len(s2) > max_total_len:
        raise SizeLimitError(
            f"combined length {len(s1) + len(s2)} exceeds the oracle limit {max_total_len}"
        )
    pad = model.whitespace_char
    n = pad_limit if pad_limit is not None else len(s1) + len(s2)
    d = _full_matrix_standard(s1 + pad * n, s2 + pad * n, model)
    return min(
        d[i][j]
        for i in range(len(s1), len(s1) + n + 1)
        for j in range(len(s2), len(s2) + n + 1)
    )


def ws_agnostic_recursive_unit(
    s1: str, s2: str, *, max_len: int = DEFAULT_RECURSIVE_LIMIT
) -> int:
    """Reference oracle: the four-case recurrence under unit costs,
    memoized.  Index positions at or past the end of a string stand for
    the imagined-whitespace marker."""
    if len(s1) > max_len or len(s2) > max_len:
        raise SizeLimitError(f"inputs longer than {max_len} characters")
    n1, n2 = len(s1), len(s2)

    @lru_cache(maxsize=None)
    def lev(i: int, j: int) -> int:
        a = s1[i] if i < n1 else None
        b = s2[j] if j < n2 else None
        if a is None and b is None:
            return 0
        if a is not None and a == b:
            return lev(min(i + 1, n1), min(j + 1, n2))
        if a == " " and b is None:
            return lev(i + 1, j)
        if a is None and b == " ":
            return lev(i, j + 1)
        best = None
        for ni, nj in ((i, j + 1), (i + 1, j), (i + 1, j + 1)):
            ni, nj = min(ni, n1), min(nj, n2)
            if (ni, nj) == (i, j):
                # the marker's tail is itself; a self-transition can
                # never be part of a minimal script
                continue
            cand = lev(ni, nj)
            if best is None or cand < best:
                best = cand
        return 1 + best

    return lev(0, 0)


# The one table from an algorithm to its function: ``distance()`` and
# ``wsadist dist --mode`` both look it up on each call.
_DISPATCH = {
    Algorithm.STANDARD: levenshtein_standard,
    Algorithm.WS_AGNOSTIC: levenshtein_ws_agnostic,
    Algorithm.NAIVE_ORACLE: ws_agnostic_naive,
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
