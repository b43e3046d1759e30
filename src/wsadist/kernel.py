"""The DP kernel behind both production distances and table detection.

There is one kernel, written in C (``_kernel.c``, shipped inside the
package), with one entry, ``wsadist_pairs`` (``dp_pairs``): in one call
it finds the lines of two streams of codes, weighs them, and scores line
i of the one against line i of the other in one lattice, whose last
column and last row, where a string has run out, charge the edge tables
``ws_del`` and ``ws_ins``.
``edge_costs`` picks the ``CostModel`` methods that fill them: the
whitespace costs for the ws-agnostic distance, ``indel`` for the
classical one.

On first use the kernel is built with the system C compiler -- ``$CC``
if set, else ``cc`` -- as ``cc -O2 -falign-loops=32 -shared -fPIC``
into a per-user cache directory, ``$XDG_CACHE_HOME/wsadist`` (default
``~/.cache/wsadist``), and loaded with ``ctypes``.  The build's key is
the source followed by the ``repr`` of the compiler command and the
platform, ``os.uname()``'s ``sysname`` and ``machine``; its files are
named by the key's CRC-32, ``kernel-<crc>.so`` with the key's exact
bytes beside it in ``kernel-<crc>.key``.  A build is loaded only when
its ``.key`` equals today's key and its ``.so`` exists; in every other
case -- a changed source or compiler, a CRC collision, a missing file
-- the stale ``.key`` is deleted and the kernel built anew: the ``.so``
and then the ``.key``, each written to a temporary file that is then
renamed into place, so concurrent processes may build at once.  One
race remains: two keys of one CRC built at the same time may leave one
key beside the other's library.  A build then deletes all but the four
newest builds, each ``.so`` with its ``.key``.  The directory is created
with mode 0700; one that another user owns, or that others may write
to, is refused.

When the build or the load fails, one warning on the ``wsadist`` logger
gives the reason, and ``dp_interpreted`` -- the same recurrence in plain
Python -- runs instead, once for each pair.  It is orders of magnitude
slower.  ``kernel_backend()`` reports which of the two is in use.
Codes whose path sums could exceed int64 -- their number (at least 1)
times the dearest cost, which bounds every pair's sums, since a pair's
two lines hold no more codes than the buffer they lie in -- always take
the interpreted kernel, which computes over Python ints; ``dp_pairs``
alone decides this.

A fresh process that loads a cached build compiles and imports only
what it runs: the build and the pruning of old builds live in
``wsadist._build``, with the ``subprocess``, ``tempfile`` and ``shlex``
they use, which ``_load`` imports only on a cache miss; the interpreted
route (``dp_interpreted``, the per-pair loop and the exact cutoff rule)
lives in ``wsadist._interpreted``, which ``dp_pairs`` imports only when
it takes that route or must rule pairs out itself.  ``logging`` is
imported only to warn of the fallback, and ``shlex`` here only to split
a ``$CC`` that is set.

Only this module knows the kernel's input: detection's lines, the lines
of two files for ``wsadist dist --files`` and a single pair all go
through ``score_document``, which normalizes a text once and encodes it
into bytes that the kernel reads in place as two streams of lines, A and
B, split at a break code, and builds one cost block (``alphabet_costs``)
for one ``dp_pairs`` call.  The kernel finds the lines, weighs them and
flags the blank ones in one pass, so no list of lines is built for it.
A pair of identical lines costs 0 with no DP, and other pairs are
scored past the prefix their lines share whenever the cost block shows
that some optimal path runs through it (see ``_kernel.c``): a line that
differs from its neighbour only in trailing whitespace then costs its
edge sum, 0 ws-agnostic, with no DP.
Detection passes its threshold, and the kernel then computes d exactly
only for the pairs that can reach it: a length bound rules some out with
no DP, and the rest run in a diagonal band (see ``dp_pairs`` and
``_kernel.c``).  A scored pair reads status 3 and d -1 exactly when its
similarity falls below the threshold, on every route: where the compiled cutoff cannot be
sure of it, ``dp_pairs`` rules the pairs out itself.  ``wsadist dist``
and single pairs pass threshold 0: every d is exact.
"""

import _thread
import ctypes
import os
import sys
import zlib
from array import array

from .cost_model import CostModel
from .normalizer import normalize_line

_SOURCE = os.path.join(os.path.dirname(__file__), "_kernel.c")
# -falign-loops=32 keeps the inner loop of `lattice` on a 32-byte boundary; an edit
# elsewhere that left it across three 32-byte blocks, not two, cost up to 11% on
# long pairs and 13% in detection (gcc 12, x86-64).  gcc and clang 13+ take it.
_FLAGS = ("-O2", "-falign-loops=32", "-shared", "-fPIC")
_INT64_MAX = (1 << 63) - 1
_EXACT_DOUBLE = 1 << 53  # past it a double no longer holds every weight
_UTF32 = "utf-32-le" if sys.byteorder == "little" else "utf-32-be"
_PTR, _F64 = ctypes.c_void_p, ctypes.c_double
# sizes, codes, blank, costs, status, heavier, dists, threshold
_PAIRS_ARGTYPES = [_PTR, ctypes.c_char_p, ctypes.c_char_p, _PTR, _PTR, _PTR, _PTR, _F64]

_UNTRIED = object()
_compiled = _UNTRIED  # the loaded C library, or None once it failed
_lock = _thread.allocate_lock()  # threading.Lock, without importing threading


def _cache_dir() -> str:
    """Where the compiled kernel is kept."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "wsadist")


def _private_dir(path: str) -> str:
    os.makedirs(path, mode=0o700, exist_ok=True)
    st = os.stat(path)
    if st.st_uid != os.getuid():
        raise OSError(f"cache directory {path} is owned by another user")
    if st.st_mode & 0o022:
        raise OSError(f"cache directory {path} is writable by other users")
    return path


def _load():
    """Build the kernel unless the cached build's key is today's, then load it."""
    cc = os.environ.get("CC")
    if cc:
        import shlex

        command = [*shlex.split(cc), *_FLAGS]
    else:
        command = ["cc", *_FLAGS]
    uname = os.uname()
    with open(_SOURCE, "rb") as fh:
        key = fh.read() + repr((command, uname.sysname, uname.machine)).encode()
    base = os.path.join(_private_dir(_cache_dir()), f"kernel-{zlib.crc32(key):08x}")
    try:
        with open(base + ".key", "rb") as fh:
            current = fh.read() == key and os.path.exists(base + ".so")
    except FileNotFoundError:
        current = False
    if not current:
        from . import _build

        _build.build(base, command, key)
        _build.prune(base + ".so")
    lib = ctypes.CDLL(base + ".so")
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


def score_document(text: str, a_end: int, b_start: int, brk, pairs: int, model: CostModel,
                   ws_agnostic: bool, threshold: float, mode=None, *, blank: bool = False,
                   max_cells: int = _INT64_MAX):
    """``dp_pairs`` on ``text``, its streams and lines split at the
    character ``brk`` (None: no break), normalized in ``mode`` if given,
    which moves no character and maps none to or from a break, then
    encoded once, with one cost block for the distance ``ws_agnostic``
    picks.  With ``blank``, a pair with a line of ``str.isspace``
    characters alone is not scored."""
    if mode is not None:
        text = normalize_line(text, mode)
    alphabet = model_alphabet(model, text)
    m = len(alphabet)
    codes = encode(text, alphabet)
    # normalizing keeps whitespace as it is
    table = bytes(map(str.isspace, map(chr, alphabet))) if blank else None
    return dp_pairs(codes, a_end, b_start, -1 if brk is None else alphabet.get(ord(brk), -1),
                    pairs, m, alphabet_costs(alphabet, m, model, ws_agnostic), threshold,
                    table, max_cells)


def dp_pairs(codes, a_end: int, b_start: int, brk: int, pairs: int, m: int, costs,
             threshold: float, blank=None, max_cells: int = _INT64_MAX):
    """Line i of stream A against line i of stream B, for ``pairs`` pairs,
    in one call, as ``(status, heavier, dists, cells)``.

    ``codes`` is ``encode``'s bytes, in one ``model_alphabet`` of size m,
    and ``costs`` the block ``alphabet_costs`` returns.  A is the first
    ``a_end`` codes and B those from ``b_start`` on, each split into lines
    at the code ``brk``; one outside the alphabet, -1 say, makes each
    stream one line, and a line past a stream's last is empty.
    ``status[i]`` (bytes) is 0 when ``blank``, k bytes that flag the blank
    codes, is given and a line holds only blank codes; 2 when the pair has
    more than ``max_cells`` cells; else 1 for a scored pair, or 3 for one
    below the threshold.  ``heavier[i]`` is D, the heavier line's weight,
    the sum of the edge table ``ws_del`` over its codes (of indel costs,
    which nothing reads, for the classical distance); ``dists[i]`` a
    scored pair's distance d, else 0; ``cells`` the lattice cells
    computed: (n1 - q) x (n2 - q) for a pair run in full, q being the
    prefix its lines share when the block passes ``_kernel.c``'s check
    and else 0, fewer in a band, none for identical lines, a line the
    prefix empties, or a pair ruled out with no DP.  Both routes skip
    the same prefixes and count the same cells at threshold 0.

    ``threshold``, in [0, 1], is detection's: a scored pair reads status 3
    and d -1 exactly when its ``1.0 - d / D`` falls below it, and d is
    exact for every other pair.  Threshold 0 rules nothing out.  Runs the
    compiled kernel on the block as one array('q') when it is available
    and no path sum can exceed int64, else ``_interpreted.score_pairs``:
    ``dp_interpreted`` on each scored pair past its skipped prefix, in
    full, over Python ints.  A pair's path sums, its weights among them,
    are at most n1 + n2 steps of the dearest cost, and n1 + n2 is at most
    the number of codes, with equality for a single pair: the route is
    decided on that bound, at no cost per line.  Where the compiled cutoff
    cannot rule pairs out exactly -- on the interpreted route, past 2^53,
    where a double no longer holds every weight, or in a build that
    evaluates doubles wider -- ``_interpreted.rule_out`` does so on the
    exact d.
    """
    ncodes = len(codes) // 4
    lib = _compiled_library()
    k = len(costs) // (m + 4)
    bound = max(ncodes, 1) * max(costs, default=0)
    # a cost beyond int64 stays interpreted anyway
    if lib is None or bound > _INT64_MAX:
        from ._interpreted import score_pairs

        status, heavier, dists, cells = score_pairs(codes, a_end, b_start, brk, pairs, m, costs,
                                                    blank, max_cells)
    else:
        sizes = array("q", (pairs, ncodes, a_end, b_start, brk, max_cells, k, m))
        status = array("B", b"\0") * pairs
        heavier, dists = array("q", [0]) * pairs, array("q", [0]) * pairs
        costs = array("q", costs)
        cells = lib.wsadist_pairs(sizes.buffer_info()[0], codes, blank, costs.buffer_info()[0],
                                  status.buffer_info()[0], heavier.buffer_info()[0],
                                  dists.buffer_info()[0], threshold)
        if cells == -1:
            raise MemoryError("DP kernel could not allocate its rows")
        if cells < 0:
            raise RuntimeError("DP kernel refused a symbol code outside its alphabet, an m "
                               "outside [0, k], streams outside its codes, a negative count "
                               "or a threshold outside [0, 1]")
    if threshold > 0 and (lib is None or bound > _EXACT_DOUBLE or not lib.exact_cutoff):
        from ._interpreted import rule_out

        rule_out(status, heavier, dists, threshold)
    return bytes(status), heavier, dists, cells

