"""The DP kernel behind both production distances and table detection.

There is one kernel, written in C (``_kernel.c``, shipped inside the
package), with one entry, ``wsadist_pairs`` (``dp_pairs``): it weighs
every line of a document and scores every adjacent pair that the caller
asks for, in one call.  A single pair is a document of two lines.  A
pair with an empty line runs in the same lattice: an empty first line
makes row 0 the last row, an empty second line column 0 the last
column.  On first use it is built with the system C compiler -- ``$CC``
if set, else ``cc`` -- as ``cc -O2 -shared -fPIC`` into a per-user
cache directory, ``$XDG_CACHE_HOME/wsadist`` (default
``~/.cache/wsadist``), and loaded with ``ctypes``.  The library's file
name is keyed by a hash of the source, the compiler command and the
platform, ``os.uname()``'s ``sysname`` and ``machine``, so a changed
source or compiler builds anew.  Each build goes to a temporary file
that is then renamed into place, so concurrent processes may build at
once.  The directory is created with mode 0700; one that another user
owns, or that others may write to, is refused.

When the build or the load fails, one warning on the ``wsadist`` logger
gives the reason, and ``dp_interpreted`` -- the same recurrence in plain
Python -- runs instead, once for each pair.  It is orders of magnitude
slower.  ``kernel_backend()`` reports which of the two is in use.
``logging`` is imported only to give that warning: a fresh process that
loads the compiled kernel starts without it.
A document whose path sums could exceed int64 -- twice its longest line
times the dearest cost -- always takes the interpreted kernel, which
computes over Python ints; a single pair is such a document.

Imagined whitespace is priced per side: a character of the first string
meeting the second's padding costs ``model.whitespace_cost`` (the
deletion side), one of the second string meeting the first's padding
``model.whitespace_insert_cost`` (the insertion side).

Detection passes its threshold to the kernel, which then computes d
exactly only for the pairs that can reach it (see ``dp_pairs``).  A pair
whose length bound -- each character of one line that no diagonal move
takes pays at least its whitespace cost -- already puts it below the
threshold gets no DP.  The rest run in a diagonal band: an interior cell
i, j with |i - j| times the cheapest indel cost above the cutoff is
skipped, and the last row and the last column, where whitespace moves
can be free, stay full.  ``wsadist dist`` and single pairs pass
threshold 0, which rules nothing out, so their distances are exact.

Every caller goes through one helper, ``score_document``: detection's
document, the line pairs of ``wsadist dist`` interleaved into one
document, and a single pair.  It encodes the whole text once
into one ``model_alphabet``, whose first m codes are the characters of
the text that lead a ``model.replace_costs`` key, builds the model's
tables once (``alphabet_costs``) and makes one ``dp_pairs`` call.  The
replacement table has m + 1 rows of k: a row symbol a below m reads row
a, and one from m on reads row m with column a taken as 0.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import sys
import threading
from array import array
from itertools import chain
from operator import sub
from pathlib import Path

from .cost_model import CostModel

_SOURCE = Path(__file__).with_name("_kernel.c")
_FLAGS = ("-O2", "-shared", "-fPIC")
_INT64_MAX = (1 << 63) - 1
_UTF32 = "utf-32-le" if sys.byteorder == "little" else "utf-32-be"
_I64, _PTR = ctypes.c_int64, ctypes.c_void_p
# lines, offsets, ncodes, codes, k, indel, ws_del, ws_ins, rep, m, want, weights, dists,
# ws_agnostic, threshold
_PAIRS_ARGTYPES = [_I64, _PTR, _I64, _PTR, _I64, _PTR, _PTR, _PTR, _PTR, _I64, ctypes.c_char_p,
                   _PTR, _PTR, ctypes.c_int, ctypes.c_double]

_UNTRIED = object()
_compiled = _UNTRIED  # the loaded C library, or None once it failed
_lock = threading.Lock()


def _cache_dir() -> Path:
    """Where the compiled kernel is kept."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "wsadist"


def _private_dir(path: Path) -> Path:
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = path.stat()
    if st.st_uid != os.getuid():
        raise OSError(f"cache directory {path} is owned by another user")
    if st.st_mode & 0o022:
        raise OSError(f"cache directory {path} is writable by other users")
    return path


def _build(target: Path, command: list[str]) -> None:
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.stem, suffix=".tmp")
    os.close(fd)
    try:
        argv = [*command, "-o", tmp, str(_SOURCE)]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        except subprocess.SubprocessError as exc:
            raise OSError(f"{shlex.join(argv)}: {exc}") from exc
        if proc.returncode != 0:
            raise OSError(
                f"{shlex.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load():
    """Build the kernel if its cached library is missing, then load it."""
    command = [*shlex.split(os.environ.get("CC") or "cc"), *_FLAGS]
    key = hashlib.sha256()
    key.update(_SOURCE.read_bytes())
    uname = os.uname()
    key.update(repr((command, uname.sysname, uname.machine)).encode())
    target = _private_dir(_cache_dir()) / f"kernel-{key.hexdigest()[:16]}.so"
    if not target.exists():
        _build(target, command)
    lib = ctypes.CDLL(str(target))
    lib.wsadist_pairs.argtypes = _PAIRS_ARGTYPES
    lib.wsadist_pairs.restype = ctypes.c_int64
    return lib


def _compiled_library():
    global _compiled
    if _compiled is _UNTRIED:
        with _lock:
            if _compiled is _UNTRIED:
                try:
                    _compiled = _load()
                except (OSError, ValueError) as exc:  # ValueError: $CC unparsable
                    import logging

                    logging.getLogger("wsadist").warning(
                        "compiled DP kernel unavailable (%s); using the interpreted "
                        "kernel, which is orders of magnitude slower",
                        exc,
                    )
                    _compiled = None
    return _compiled


def kernel_backend() -> str:
    """``"compiled"`` or ``"interpreted"``: the kernel that distances run on.
    The first call builds or loads the compiled kernel."""
    return "interpreted" if _compiled_library() is None else "compiled"


class Alphabet(dict):
    """Code point -> index, in order of first appearance.  Used as the
    ``str.translate`` table, it collects the alphabet in the same pass."""

    def __missing__(self, point: int) -> int:
        self[point] = index = len(self)
        return index


def encode(s: str, alphabet: Alphabet) -> array:
    """``s`` as codes into ``alphabet``, which gains the characters it
    lacked."""
    # str.translate swaps each character for the one whose code point is
    # its index, at C speed; UTF-32 then gives the codes as uint32.
    # Indices stay below 0x110000, since no alphabet is larger, and
    # "surrogatepass" lets those in the surrogate range through.
    return array("I", s.translate(alphabet).encode(_UTF32, "surrogatepass"))


def model_alphabet(model: CostModel, text: str) -> Alphabet:
    """An alphabet whose codes 0..m-1, m being its size, are the
    characters of ``text`` that lead a key of ``model.replace_costs``:
    the row symbols with a row of their own in the replacement table.
    ``text`` holds every first line of the pairs to be scored."""
    alphabet = Alphabet()
    # one str scan per lead, at memchr speed: faster than set(text) for
    # the few leads a model has
    for a in model._replace_rows:
        if a in text:
            alphabet[ord(a)] = len(alphabet)
    return alphabet


def alphabet_costs(alphabet: Alphabet, m: int, model: CostModel):
    """``model``'s costs over ``alphabet``, a ``model_alphabet`` of size m
    that both lines of each pair are encoded in: per-symbol indel costs,
    deletion-side and insertion-side whitespace costs, the (m+1) x k
    replacement costs (a to b at row a, column b; row m is the default
    everywhere), and the dearest of them.  The tables are array('q') when
    every cost fits int64, else lists."""
    chars = [chr(point) for point in alphabet]
    indel = [model.indel(c) for c in chars]
    ws_del = [model.whitespace_cost(c) for c in chars]
    ws_ins = [model.whitespace_insert_cost(c) for c in chars]
    default, rows = model.replace_default, model._replace_rows
    rep = [0 if a == b else rows[a].get(b, default) for a in chars[:m] for b in chars]
    rep += [default] * len(chars)
    # a whitespace cost is never above its indel cost
    dearest = max(chain(indel, rep), default=0)
    if dearest <= _INT64_MAX:
        indel, ws_del, ws_ins, rep = (array("q", t) for t in (indel, ws_del, ws_ins, rep))
    return indel, ws_del, ws_ins, rep, dearest


def score_document(text: str, offsets, want: bytes, model: CostModel, ws_agnostic: bool,
                   threshold: float):
    """One kernel call over a document of lines, given as ``text``, the
    lines joined, and ``offsets``, ints from 0 to ``len(text)``: line i is
    ``text[offsets[i]:offsets[i + 1]]``.  ``text`` is encoded once into
    ``model_alphabet(model, text)``, ``model``'s tables are built once
    over it, and ``dp_pairs`` weighs every line and scores each pair that
    ``want`` flags, up to ``threshold``.  Returns ``dp_pairs``'s
    ``(weights, dists)``."""
    alphabet = model_alphabet(model, text)
    m = len(alphabet)
    return dp_pairs(encode(text, alphabet), array("q", offsets), want, m,
                    *alphabet_costs(alphabet, m, model), ws_agnostic, threshold)


def _refusal(result: int, n: int) -> Exception:
    """The error for the kernel's negative ``result`` on rows of ``n + 1``."""
    if result == -1:
        return MemoryError(f"DP kernel could not allocate two rows of {n + 1}")
    return RuntimeError("DP kernel refused a symbol code outside its alphabet, an m outside "
                        "[0, k], an offset or a threshold outside [0, 1]")


def dp_pairs(codes, offsets, want: bytes, m: int, indel, ws_del, ws_ins, rep, dearest: int,
             ws_agnostic: bool, threshold: float):
    """Every line's weight and the distance of each wanted adjacent pair
    of one document, in one call; ws-agnostic with ``ws_agnostic``, else
    the classical distance.

    Line i is ``codes[offsets[i]:offsets[i + 1]]`` (array('I') and
    array('q')), in one ``model_alphabet`` of size m; the tables and
    ``dearest`` are as ``alphabet_costs`` returns them.  ``want`` holds
    one byte per adjacent pair; either line of a wanted pair may be
    empty.  Returns ``(weights, dists)``: weights[i] is the sum of
    ``ws_del`` over line i, and dists[i] the distance d from line i to
    line i + 1 for each wanted pair, else 0.

    ``threshold``, in [0, 1], is detection's: the compiled kernel may
    write -1 in place of d for a pair whose ``1.0 - d / D``, D the
    heavier line's weight, is sure to fall below it, and d is exact for
    every other pair.  Threshold 0 rules nothing out.  Runs the compiled
    kernel when it is available and no path sum can exceed int64, else
    ``dp_interpreted`` on each wanted pair, which computes every d.
    """
    lines = len(offsets) - 1
    if lines < 0 or len(want) != max(lines - 1, 0):
        raise ValueError(f"{len(offsets)} offsets and {len(want)} wanted flags do not agree")
    lib = _compiled_library()
    longest = max(map(sub, offsets[1:], offsets), default=0)
    # A pair's cells are at most (n1 + n2) steps of the dearest cost; list
    # tables (a cost beyond int64) stay interpreted even with no pair.
    if lib is None or dearest > _INT64_MAX or 2 * longest * dearest > _INT64_MAX:
        weights = [sum(ws_del[c] for c in codes[a:b]) for a, b in zip(offsets, offsets[1:])]
        dists = [dp_interpreted(codes[a:b], codes[b:c], indel, ws_del, ws_ins, rep, m,
                                ws_agnostic) if wanted else 0
                 for wanted, a, b, c in zip(want, offsets, offsets[1:], offsets[2:])]
        return weights, dists
    weights, dists = array("q", [0]) * lines, array("q", [0]) * len(want)
    result = lib.wsadist_pairs(
        lines, offsets.buffer_info()[0], len(codes), codes.buffer_info()[0], len(indel),
        *(t.buffer_info()[0] for t in (indel, ws_del, ws_ins, rep)), m, want,
        weights.buffer_info()[0], dists.buffer_info()[0], ws_agnostic, threshold,
    )
    if result < 0:
        raise _refusal(result, longest)
    return weights, dists


def dp_interpreted(code1, code2, indel, ws_del, ws_ins, rep, m: int, ws_agnostic: bool) -> int:
    """Two-row DP over the (n1+1) x (n2+1) lattice, in plain Python.

    code1 and code2 index one alphabet of size k; ``indel`` holds
    per-symbol indel costs, ``ws_del``/``ws_ins`` per-symbol costs
    against imagined whitespace on the first and the second side (only
    read when ``ws_agnostic``), and ``rep`` the replacement costs in
    row-major order, k to a row: row a for a row symbol a < m, and row
    m, with column a taken as 0, for one from m on.  m is in [0, k].
    With ``ws_agnostic`` the last row and last column charge the
    whitespace costs for insertions and deletions: with n1 = 0, row 0 is
    the last row, and with n2 = 0, column 0 the last column.
    """
    n1, n2, k = len(code1), len(code2), len(indel)
    ins = [(ws_ins if ws_agnostic and n1 == 0 else indel)[b] for b in code2]
    prev = [0]
    for cost in ins:
        prev.append(prev[-1] + cost)
    for i, a in enumerate(code1, 1):
        dcost = ws_del[a] if ws_agnostic and n2 == 0 else indel[a]
        if ws_agnostic and i == n1:
            ins = [ws_ins[b] for b in code2]
        shared = min(a, m)
        row = rep[shared * k:(shared + 1) * k]
        if a >= m:
            row[a] = 0
        left = prev[0] + dcost
        cur = [left]
        for j in range(1, n2 + 1):
            if ws_agnostic and j == n2:
                dcost = ws_del[a]
            left = min(prev[j] + dcost, left + ins[j - 1], prev[j - 1] + row[code2[j - 1]])
            cur.append(left)
        prev = cur
    return prev[n2]
