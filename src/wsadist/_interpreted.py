"""The kernel's interpreted route, in plain Python over Python ints: the
pairs that ``kernel.dp_pairs`` cannot hand the C kernel -- there is no
compiled kernel, or a path sum could exceed int64 -- and the cutoff rule
where the compiled one cannot be exact.  ``dp_pairs`` imports this module
only when it takes that route or must rule pairs out itself, so a run on
the compiled kernel never compiles it."""

import os
from itertools import accumulate

from .kernel import _UTF32


def score_pairs(codes, a_end: int, b_start: int, brk: int, pairs: int, m: int, costs, blank,
                max_cells: int):
    """``dp_pairs`` at threshold 0, as ``(status, heavier, dists, cells)``:
    ``dp_interpreted`` on each scored pair past the prefix its lines share
    when ``_skips_prefix`` passes on ``costs`` or the lines are identical,
    in full otherwise."""
    k = len(costs) // (m + 4)
    ws_del, text = costs[k:2 * k], codes.decode(_UTF32, "surrogatepass")  # one code a char
    skip_prefix = _skips_prefix(costs, k, m)
    streams = [(part.split(chr(brk)) if 0 <= brk < k else [part]) + [""] * pairs
               for part in (text[:a_end], text[b_start:])]
    status, heavier, dists, cells = bytearray(pairs), [0] * pairs, [0] * pairs, 0
    for i, *pair in zip(range(pairs), *streams):
        one, two = (list(map(ord, line)) for line in pair)
        heavier[i] = max(sum(ws_del[c] for c in one), sum(ws_del[c] for c in two))
        if blank is not None and not all(any(not blank[c] for c in line)
                                         for line in (one, two)):
            continue
        status[i] = 1 + (len(one) * len(two) > max_cells)
        if status[i] == 1:
            if skip_prefix or one == two:
                q = len(os.path.commonprefix(pair))
                one, two = one[q:], two[q:]
            dists[i] = dp_interpreted(one, two, costs, m)
            cells += len(one) * len(two)
    return status, heavier, dists, cells


def _skips_prefix(costs, k: int, m: int) -> bool:
    """Whether a prefix that two lines share may be skipped under the block
    ``costs``: when the dearest indel less the cheapest is at most the
    cheapest replacement of a symbol by another, each column of row m
    counted, as ``_kernel.c`` decides it once a call."""
    indel, rep = costs[:k], costs[3 * k:]
    return not k or max(indel) - min(indel) <= min(
        rep[a * k + b] for a in range(m + 1) for b in range(k) if a == m or a != b)


def rule_out(status, heavier, dists, threshold: float) -> None:
    """Mark 3, with d -1, each scored pair whose exact ``1.0 - d / D``
    falls below ``threshold``; a pair of D = 0 scores 1.0, and one the
    compiled kernel ruled out stays as it is."""
    for j, scored in enumerate(status):
        d, weight = dists[j], heavier[j]
        if scored == 1 and d > 0 and weight and 1.0 - d / weight < threshold:
            status[j], dists[j] = 3, -1


def dp_interpreted(code1, code2, costs, m: int) -> int:
    """Two-row DP over the (n1+1) x (n2+1) lattice, in plain Python.

    code1 and code2 index one alphabet of size k, and ``costs`` is its
    block as ``alphabet_costs`` lays it out, of (m + 4) x k entries; m is in
    [0, k].  A row symbol from m on takes row m with its own column as 0.
    With n1 = 0, row 0 is the last row, and with n2 = 0, column 0 the last
    column.
    """
    n1, n2, k = len(code1), len(code2), len(costs) // (m + 4)
    indel, ws_del, ws_ins = costs[:k], costs[k:2 * k], costs[2 * k:3 * k]
    ins = [(ws_ins if n1 == 0 else indel)[b] for b in code2]
    prev = list(accumulate(ins, initial=0))
    for i, a in enumerate(code1, 1):
        dcost = ws_del[a] if n2 == 0 else indel[a]
        if i == n1:
            ins = [ws_ins[b] for b in code2]
        shared = min(a, m) + 3  # the replacement rows follow the three k-entry tables
        row = costs[shared * k:(shared + 1) * k]
        if a >= m:
            row[a] = 0
        left = prev[0] + dcost
        cur = [left]
        for j in range(1, n2 + 1):
            if j == n2:
                dcost = ws_del[a]
            left = min(prev[j] + dcost, left + ins[j - 1], prev[j - 1] + row[code2[j - 1]])
            cur.append(left)
        prev = cur
    return prev[n2]
