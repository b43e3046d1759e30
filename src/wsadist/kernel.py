"""The DP kernel behind both production distances.

There is one kernel, written in C (``_kernel.c``, shipped inside the
package).  On first use it is built with the system C compiler -- ``$CC``
if set, else ``cc`` -- as ``cc -O2 -shared -fPIC`` into a per-user cache
directory, ``$XDG_CACHE_HOME/wsadist`` (default ``~/.cache/wsadist``),
and loaded with ``ctypes``.  The library's file name is keyed by a hash
of the source, the compiler command and the platform, so a changed
source or compiler builds anew.  Each build goes to a temporary file that
is then renamed into place, so concurrent processes may build at once.
The directory is created with mode 0700; one that another user owns, or
that others may write to, is refused.

When the build or the load fails, one warning on the ``wsadist`` logger
gives the reason, and ``dp_interpreted`` -- the same recurrence in plain
Python -- runs instead.  It is orders of magnitude slower.
``kernel_backend()`` reports which of the two is in use.  Inputs whose
path sums could exceed int64 always take the interpreted kernel, which
computes over Python ints.

A row symbol a below ``m1`` reads row a of the replacement table, and
one from ``m1`` on reads row ``m1`` with column a taken as 0.  A single
pair passes ``m1 = k1`` with its k1 x k2 table.  Detection encodes a
document into one ``model_alphabet``, so ``m1`` is the number m of
characters that lead a ``model.replace_costs`` key and the table has
m + 1 rows; ``m1 < k1`` requires one shared alphabet (``k1 == k2``).
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shlex
import sys
import threading
from array import array
from itertools import chain
from pathlib import Path

from .cost_model import CostModel

log = logging.getLogger("wsadist")

_SOURCE = Path(__file__).with_name("_kernel.c")
_FLAGS = ("-O2", "-shared", "-fPIC")
_INT64_MAX = (1 << 63) - 1
_UTF32 = "utf-32-le" if sys.byteorder == "little" else "utf-32-be"
_I64, _PTR = ctypes.c_int64, ctypes.c_void_p
# n1, code1, n2, code2, k1, indel1, ws1, k2, indel2, ws2, rep, m1, ws_agnostic
_ARGTYPES = [_I64, _PTR, _I64, _PTR, _I64, _PTR, _PTR, _I64, _PTR, _PTR, _PTR, _I64, ctypes.c_int]

_UNTRIED = object()
_compiled = _UNTRIED  # the loaded C function, or None once it failed
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
    key.update(repr((command, platform.system(), platform.machine())).encode())
    target = _private_dir(_cache_dir()) / f"kernel-{key.hexdigest()[:16]}.so"
    if not target.exists():
        _build(target, command)
    fn = ctypes.CDLL(str(target)).wsadist_dp
    fn.argtypes = _ARGTYPES
    fn.restype = ctypes.c_int64
    return fn


def _compiled_kernel():
    global _compiled
    if _compiled is _UNTRIED:
        with _lock:
            if _compiled is _UNTRIED:
                try:
                    _compiled = _load()
                except (OSError, ValueError) as exc:  # ValueError: $CC unparsable
                    log.warning(
                        "compiled DP kernel unavailable (%s); using the interpreted "
                        "kernel, which is orders of magnitude slower",
                        exc,
                    )
                    _compiled = None
    return _compiled


def kernel_backend() -> str:
    """``"compiled"`` or ``"interpreted"``: the kernel that distances run on.
    The first call builds or loads the compiled kernel."""
    return "interpreted" if _compiled_kernel() is None else "compiled"


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


def _symbols(s: str, model: CostModel):
    """``s`` as codes into its own alphabet, with that alphabet's indel and
    whitespace costs."""
    alphabet = Alphabet()
    codes = encode(s, alphabet)
    chars = [chr(point) for point in alphabet]
    indel = [model.indel(c) for c in chars]
    ws = [model.whitespace_cost(c) for c in chars]
    return codes, indel, ws, chars


def model_alphabet(model: CostModel) -> Alphabet:
    """An alphabet whose codes 0..m-1 are the m distinct characters that
    lead a key of ``model.replace_costs``."""
    alphabet = Alphabet()
    for a, _ in model.replace_costs:
        alphabet.setdefault(ord(a), len(alphabet))
    return alphabet


def alphabet_costs(alphabet: Alphabet, model: CostModel):
    """``model``'s costs over ``alphabet``, a ``model_alphabet`` that both
    sides of a pair are encoded in: per-symbol indel and whitespace costs,
    m, the (m+1) x k replacement costs (a to b at row a, column b; row m
    is the default everywhere), and the dearest of them.  The tables are
    array('q') when every cost fits int64, else lists."""
    chars = [chr(point) for point in alphabet]
    indel = [model.indel(c) for c in chars]
    ws = [model.whitespace_cost(c) for c in chars]
    k, m = len(chars), len({a for a, _ in model.replace_costs})
    rep = [model.replace_default] * ((m + 1) * k)
    rep[:m * (k + 1):k + 1] = [0] * m
    for (a, b), cost in model.replace_costs.items():
        j = alphabet.get(ord(b))
        if j is not None:
            rep[alphabet[ord(a)] * k + j] = cost
    dearest = max(chain(indel, ws, rep), default=0)
    if dearest <= _INT64_MAX:
        indel, ws, rep = (array("q", t) for t in (indel, ws, rep))
    return indel, ws, m, rep, dearest


def dp(s1: str, s2: str, model: CostModel, ws_agnostic: bool) -> int:
    """Weighted distance between non-empty ``s1`` and ``s2`` under
    ``model``; with ``ws_agnostic``, both count as padded by imagined
    trailing whitespace."""
    code1, indel1, ws1, alpha1 = _symbols(s1, model)
    code2, indel2, ws2, alpha2 = _symbols(s2, model)
    rep = [model.replace(a, b) for a in alpha1 for b in alpha2]
    dearest = max(max(indel1), max(ws1), max(indel2), max(ws2), max(rep))
    return dp_encoded(code1, code2, indel1, ws1, indel2, ws2, rep, len(alpha1), dearest,
                      ws_agnostic)


def dp_encoded(code1, code2, indel1, ws1, indel2, ws2, rep, m1: int, dearest: int,
               ws_agnostic: bool) -> int:
    """The distance between the non-empty code sequences ``code1`` and
    ``code2`` (array('I')), over cost tables and ``m1`` as
    ``dp_interpreted`` takes them, the tables as lists of ints or array('q');
    ``dearest`` bounds every cost in them.  Runs the compiled kernel when
    it is available and no path sum can exceed int64, else
    ``dp_interpreted``."""
    fn = _compiled_kernel()
    n1, n2 = len(code1), len(code2)
    # A cell is at most (i + j) steps of the dearest cost, a candidate one more.
    if fn is None or (n1 + n2) * dearest > _INT64_MAX:
        return dp_interpreted(code1, code2, indel1, ws1, indel2, ws2, rep, m1, ws_agnostic)
    # the arrays stay referenced here until the kernel returns
    tables = [t if isinstance(t, array) else array("q", t)
              for t in (indel1, ws1, indel2, ws2, rep)]
    i1, w1, i2, w2, r = (t.buffer_info()[0] for t in tables)
    result = fn(
        n1, code1.buffer_info()[0], n2, code2.buffer_info()[0],
        len(indel1), i1, w1, len(indel2), i2, w2, r, m1, ws_agnostic,
    )
    if result == -1:
        raise MemoryError(f"DP kernel could not allocate two rows of {n2 + 1}")
    if result < 0:
        raise RuntimeError("DP kernel refused a symbol code outside its alphabet or m1")
    return result


def dp_interpreted(code1, code2, indel1, ws1, indel2, ws2, rep, m1: int,
                   ws_agnostic: bool) -> int:
    """Two-row DP over the (n1+1) x (n2+1) lattice, in plain Python.

    code1/code2 index alphabets of sizes k1 and k2; indel1/indel2 hold
    per-symbol indel costs, ws1/ws2 per-symbol costs against imagined
    whitespace (only read when ``ws_agnostic``), and ``rep`` the
    replacement costs in row-major order, k2 to a row: row a for a row
    symbol a < ``m1``, and row ``m1``, with column a taken as 0, for one
    from ``m1`` on.  ``m1`` is in [0, k1], and below k1 only when both
    sides share one alphabet.  With ``ws_agnostic`` the last row and last
    column charge the whitespace costs for insertions and deletions.
    Requires n1 >= 1 and n2 >= 1.
    """
    n1, n2, k2 = len(code1), len(code2), len(indel2)
    ins = [indel2[b] for b in code2]
    prev = [0]
    for cost in ins:
        prev.append(prev[-1] + cost)
    for i, a in enumerate(code1, 1):
        dcost = indel1[a]
        if ws_agnostic and i == n1:
            ins = [ws2[b] for b in code2]
        shared = min(a, m1)
        row = rep[shared * k2:(shared + 1) * k2]
        if a >= m1:
            row[a] = 0
        left = prev[0] + dcost
        cur = [left]
        for j in range(1, n2 + 1):
            if ws_agnostic and j == n2:
                dcost = ws1[a]
            left = min(prev[j] + dcost, left + ins[j - 1], prev[j - 1] + row[code2[j - 1]])
            cur.append(left)
        prev = cur
    return prev[n2]
