"""The DP kernel behind both production distances and table detection.

There is one kernel, written in C (``_kernel.c``, shipped inside the
package), with one entry, ``wsadist_pairs`` (``dp_pairs``): in one call
it weighs every line of a document and scores each adjacent pair asked
for in one lattice, whose last column and last row, where a string has
run out, charge the edge tables ``ws_del`` and ``ws_ins``.
``edge_costs`` picks the ``CostModel`` methods that fill them: the
whitespace costs for the ws-agnostic distance, ``indel`` for the
classical one.

On first use the kernel is built with the system C compiler -- ``$CC``
if set, else ``cc`` -- as ``cc -O2 -falign-loops=32 -shared -fPIC``
into a per-user cache directory, ``$XDG_CACHE_HOME/wsadist`` (default
``~/.cache/wsadist``), and loaded with ``ctypes``.  The library's file
name is keyed by a hash of the source, the compiler command and the
platform, ``os.uname()``'s ``sysname`` and ``machine``, so a changed
source or compiler builds anew, and then deletes all but the four
newest builds.  Each build goes to a temporary file that is then
renamed into place, so concurrent processes may build at once.  The
directory is created with mode 0700; one that another user owns, or
that others may write to, is refused.

When the build or the load fails, one warning on the ``wsadist`` logger
gives the reason, and ``dp_interpreted`` -- the same recurrence in plain
Python -- runs instead, once for each pair.  It is orders of magnitude
slower.  ``kernel_backend()`` reports which of the two is in use.
``logging`` is imported only to give that warning: a fresh process that
loads the compiled kernel starts without it.
A document whose path sums could exceed int64 -- its number of codes
(at least 1) times the dearest cost, which bounds every pair's sums, since
a pair's two lines hold no more codes than the document -- always takes
the interpreted kernel, which computes over Python ints; ``dp_pairs``
alone decides this.

Only this module knows the kernel's input: detection's lines, the line
pairs of ``wsadist dist`` interleaved, and a single pair all go through
``score_document``, which joins, normalizes and encodes them once, into
bytes the kernel reads in place beside an array of the line lengths, and
builds one cost block (``alphabet_costs``) for one ``dp_pairs`` call.
Detection passes its threshold, and the kernel then computes d exactly
only for the pairs that can reach it: a length bound rules some out with
no DP, and the rest run in a diagonal band (see ``dp_pairs`` and
``_kernel.c``).  A wanted pair reads -1 exactly when its similarity falls
below the threshold, on every route: where the compiled cutoff cannot be
sure of it, ``dp_pairs`` rules the pairs out itself.  ``wsadist dist``
and single pairs pass threshold 0: every d is exact.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import sys
import threading
from array import array
from itertools import accumulate, pairwise
from pathlib import Path

from .cost_model import CostModel
from .normalizer import normalize_line

_SOURCE = Path(__file__).with_name("_kernel.c")
# -falign-loops=32 keeps the inner loop of `lattice` on a 32-byte boundary; an edit
# elsewhere that left it across three 32-byte blocks, not two, cost up to 11% on
# long pairs and 13% in detection (gcc 12, x86-64).  gcc and clang 13+ take it.
_FLAGS = ("-O2", "-falign-loops=32", "-shared", "-fPIC")
_INT64_MAX = (1 << 63) - 1
_EXACT_DOUBLE = 1 << 53  # past it a double no longer holds every weight
_UTF32 = "utf-32-le" if sys.byteorder == "little" else "utf-32-be"
# the byte of a native int64 that holds its sign, and a table that reads
# it as 1 where the int64 is not negative
_SIGN_BYTE = 7 if sys.byteorder == "little" else 0
_NOT_NEGATIVE = bytes(byte < 0x80 for byte in range(256))
_I64, _PTR, _F64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
# lines, lengths, ncodes, codes, k, costs, m, want, weights, dists, threshold
_PAIRS_ARGTYPES = [_I64, _PTR, _I64, _PTR, _I64, _PTR, _I64, ctypes.c_char_p, _PTR, _PTR, _F64]

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


def _prune(keep: Path) -> None:
    """Delete the ``kernel-*.so`` builds beside ``keep`` but the four most
    recently modified, ``keep`` among them: two sources compared in one
    process both load without a rebuild, and a process that loaded a
    deleted build keeps its mapping."""
    try:
        builds = sorted(keep.parent.glob("kernel-*.so"), key=lambda p: p.stat().st_mtime)
        for old in builds[:-4]:
            if old != keep:
                old.unlink()
    except OSError:  # another process pruning at once
        pass


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
        _prune(target)
    lib = ctypes.CDLL(str(target))
    lib.wsadist_pairs.argtypes = _PAIRS_ARGTYPES
    lib.wsadist_pairs.restype = ctypes.c_int64
    lib.exact_cutoff = ctypes.c_int.in_dll(lib, "wsadist_exact_cutoff").value
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


def encode(s: str, alphabet: Alphabet) -> bytes:
    """``s`` as codes into ``alphabet``, which gains the characters it
    lacked: native uint32, four bytes to a code."""
    # str.translate swaps each character for the one whose code point is
    # its index, at C speed; UTF-32 then gives the codes as uint32.
    # Indices stay below 0x110000, since no alphabet is larger, and
    # "surrogatepass" lets those in the surrogate range through.
    return s.translate(alphabet).encode(_UTF32, "surrogatepass")


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


def edge_costs(ws_agnostic: bool):
    """The ``CostModel`` methods that price the lattice's last column and
    last row: the whitespace costs with ``ws_agnostic``, else ``indel``."""
    if ws_agnostic:
        return CostModel.whitespace_cost, CostModel.whitespace_insert_cost
    return CostModel.indel, CostModel.indel


def alphabet_costs(alphabet: Alphabet, m: int, model: CostModel, ws_agnostic: bool) -> list:
    """``model``'s costs over ``alphabet``, a ``model_alphabet`` of size m
    that both lines of each pair are encoded in, as the one block that
    ``wsadist_pairs`` reads, (m + 4) x k entries for k symbols: the indel
    costs, then the deletion-side and the insertion-side ``edge_costs``
    (last column, last row), k each, then the (m+1) x k replacement costs,
    row-major: a to b at row a, column b, and row m, the default
    everywhere, for every row symbol from m on."""
    chars = [chr(point) for point in alphabet]
    costs = [model.indel(c) for c in chars]
    for cost in edge_costs(ws_agnostic):
        costs += costs[:len(chars)] if cost is CostModel.indel else [cost(model, c) for c in chars]
    default, rows = model.replace_default, model._replace_rows
    costs += [0 if a == b else rows[a].get(b, default) for a in chars[:m] for b in chars]
    costs += [default] * len(chars)
    return costs


def score_document(lines, lengths, want: bytes, model: CostModel, ws_agnostic: bool,
                   threshold: float, mode=None):
    """``dp_pairs``'s ``(weights, dists)`` for a document of ``lines``, of
    ``lengths`` (ints, from the caller, who has them already), joined and,
    given a ``NormalizationMode``, normalized, which keeps each line's
    length: one encoding into its ``model_alphabet``, one cost block for
    the distance ``ws_agnostic`` picks, and one kernel call."""
    text = "".join(lines)
    if mode is not None:
        text = normalize_line(text, mode)
    alphabet = model_alphabet(model, text)
    m = len(alphabet)
    return dp_pairs(encode(text, alphabet), array("q", lengths), want, m,
                    alphabet_costs(alphabet, m, model, ws_agnostic), threshold)


def _refusal(result: int, lengths) -> Exception:
    """The error for the kernel's negative ``result`` on lines of ``lengths``."""
    if result == -1:
        longest = max(lengths, default=0)
        return MemoryError(f"DP kernel could not allocate two rows of {longest + 1}")
    return RuntimeError("DP kernel refused a symbol code outside its alphabet, an m outside "
                        "[0, k], line lengths outside its codes or a threshold outside [0, 1]")


def dp_pairs(codes, lengths, want: bytes, m: int, costs, threshold: float):
    """Every line's weight and the distance of each wanted adjacent pair
    of one document, in one call.

    ``codes`` is ``encode``'s bytes, in one ``model_alphabet`` of size m,
    and line i the next ``lengths[i]`` codes (array('q')); ``costs`` is
    the block ``alphabet_costs`` returns.  ``want`` holds one byte per
    adjacent pair; either line of a wanted pair may be empty.  Returns
    ``(weights, dists)``: weights[i] is the sum of the edge table
    ``ws_del`` over line i (of indel costs, which nothing reads, for the
    classical distance), and dists[i] the distance d from line i to line
    i + 1 for each wanted pair, else 0.

    ``threshold``, in [0, 1], is detection's: a wanted pair reads -1 in
    place of d exactly when its ``1.0 - d / D``, D the heavier line's
    weight, falls below it, and d is exact for every other pair.  Threshold
    0 rules nothing out.  Runs the compiled kernel on the block as one
    array('q') when it is available and no path sum can exceed int64, else
    ``dp_interpreted`` on each wanted pair, which computes every d over
    Python ints.  A pair's path sums, its weights among them, are at most
    n1 + n2 steps of the dearest cost, and n1 + n2 is at most the number
    of codes, with equality for a single pair: the route is decided on
    that bound, at no cost per line.  Where the compiled cutoff cannot
    rule pairs out exactly -- on the interpreted route, past 2^53, where a
    double no longer holds every weight, or in a build that evaluates
    doubles wider -- ``_rule_out`` does so on the exact d.
    """
    lines, ncodes = len(lengths), len(codes) // 4
    if len(want) != max(lines - 1, 0):
        raise ValueError(f"{lines} lines and {len(want)} wanted flags do not agree")
    lib = _compiled_library()
    k = len(costs) // (m + 4)
    bound = max(ncodes, 1) * max(costs, default=0)
    # a cost beyond int64 stays interpreted anyway
    if lib is None or bound > _INT64_MAX:
        codes = memoryview(codes).cast("I")
        offsets = list(accumulate(lengths, initial=0))
        ws_del = costs[k:2 * k]
        weights = [sum(ws_del[c] for c in codes[a:b]) for a, b in pairwise(offsets)]
        dists = [dp_interpreted(codes[a:b], codes[b:c], costs, m) if wanted else 0
                 for wanted, a, b, c in zip(want, offsets, offsets[1:], offsets[2:])]
    else:
        weights, dists = array("q", [0]) * lines, array("q", [0]) * len(want)
        costs = array("q", costs)
        result = lib.wsadist_pairs(lines, lengths.buffer_info()[0], ncodes, codes, k,
                                   costs.buffer_info()[0], m, want, weights.buffer_info()[0],
                                   dists.buffer_info()[0], threshold)
        if result < 0:
            raise _refusal(result, lengths)
    if threshold > 0 and (lib is None or bound > _EXACT_DOUBLE or not lib.exact_cutoff):
        _rule_out(weights, dists, want, threshold)
    return weights, dists


def _rule_out(weights, dists, want, threshold: float) -> None:
    """Write -1 over each wanted pair's exact d whose ``1.0 - d / D``, D
    the heavier line's weight, falls below ``threshold``; a pair of D = 0
    scores 1.0, and one the compiled kernel ruled out keeps its -1."""
    for j, wanted in enumerate(want):
        d, heavier = dists[j], max(weights[j], weights[j + 1])
        if wanted and d > 0 and heavier and 1.0 - d / heavier < threshold:
            dists[j] = -1


def reached(dists) -> bytes:
    """One byte per pair of ``dp_pairs``'s ``dists``: 0 where the pair
    reads -1, ruled out below the threshold, else 1."""
    if isinstance(dists, array):  # the compiled route's int64s, read by sign byte
        return dists.tobytes()[_SIGN_BYTE::8].translate(_NOT_NEGATIVE)
    return bytes(d >= 0 for d in dists)


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
