"""Two deliberately independent reference paths for differential testing
of the production distances, sharing no code with ``wsadist.kernel``:

* ``ws_agnostic_naive`` -- minimum of the classical distance over all
  trailing-space paddings of both inputs (pure Python, full matrix).  It
  is also the ``naive-oracle`` ``Algorithm`` of ``wsadist.distance``.
* ``ws_agnostic_recursive_unit`` -- memoized transcription of the
  four-case recurrence under unit costs (pure Python).  It ignores any
  cost model, so it is not an ``Algorithm``: call it directly.
"""

from __future__ import annotations

from functools import lru_cache

from .cost_model import CostModel, unit_model

DEFAULT_NAIVE_LIMIT = 512
DEFAULT_RECURSIVE_LIMIT = 64


class SizeLimitError(ValueError):
    """Inputs exceed the documented size limit of the chosen algorithm."""


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
