"""The compiled DP kernel: its build into the per-user cache, the
interpreted fallback and its one warning, and the int64 guard.  Both
kernels are checked against the independent padded oracle."""

import logging
import os
import platform
import random
import shlex
import shutil
import subprocess
import sys
import time
import tracemalloc
import zlib
from array import array
from itertools import pairwise
from pathlib import Path

import pytest

import wsadist.kernel as kernel
from wsadist import (
    CostModel,
    appendix_model,
    detect_tables,
    kernel_backend,
    levenshtein_standard,
    levenshtein_ws_agnostic,
    line_whitespace_cost,
    ws_agnostic_naive,
)
from wsadist._interpreted import dp_interpreted
from wsadist.normalizer import NormalizationMode, normalize_line
from test_table_detect import (MODELS, PIECES, assert_cutoff_keeps_decisions, lattice_cells,
                               pair_triples, random_document)

ALPHABET = "aA9(),$ "
SRC = Path(__file__).resolve().parents[1] / "src"

def score_lines(doc, model, ws_agnostic, threshold=0.0, mode=None, **options):
    """``score_document`` on the adjacent pairs of ``doc``, laid out as
    detection lays them: the lines joined at "\n" as stream A, and from
    line 1 on as stream B."""
    assert not any("\n" in line for line in doc)
    text = "\n".join(doc)
    return kernel.score_document(text, len(text), text.find("\n") + 1, "\n",
                                 max(len(doc) - 1, 0), model, ws_agnostic, threshold, mode,
                                 **options)


needs_compiler = pytest.mark.skipif(
    shutil.which((os.environ.get("CC") or "cc").split()[0]) is None,
    reason="no C compiler to build the kernel with",
)


def assert_matches_oracle(unit, appendix, seed):
    rng = random.Random(seed)
    for _ in range(150):
        s1, s2 = (
            "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 16)))
            for _ in range(2)
        )
        for model in (unit, appendix):
            assert levenshtein_ws_agnostic(s1, s2, model) == ws_agnostic_naive(
                s1, s2, model
            ), (s1, s2)
            # with no padding the oracle is the classical distance
            assert levenshtein_standard(s1, s2, model) == ws_agnostic_naive(
                s1, s2, model, pad_limit=0
            ), (s1, s2)


def test_fallback_matches_oracle_and_warns_once(fresh_kernel, monkeypatch, caplog, unit, appendix):
    monkeypatch.setenv("CC", "/nonexistent/cc")
    with caplog.at_level(logging.WARNING, logger="wsadist"):
        assert kernel_backend() == "interpreted"
        assert_matches_oracle(unit, appendix, 20261018)
        assert kernel_backend() == "interpreted"
    warnings = [r for r in caplog.records if r.name == "wsadist"]
    assert len(warnings) == 1
    assert "/nonexistent/cc" in warnings[0].getMessage()


@pytest.mark.skipif(shutil.which("false") is None, reason="no `false` command")
def test_compiler_exiting_non_zero_falls_back(fresh_kernel, monkeypatch, caplog, unit):
    """A compiler that runs but fails: one warning names the command and
    its status, and the build's temporary file is gone."""
    monkeypatch.setenv("CC", "false")
    with caplog.at_level(logging.WARNING, logger="wsadist"):
        assert kernel_backend() == "interpreted"
        assert levenshtein_ws_agnostic("a9 ", "A", unit) == ws_agnostic_naive("a9 ", "A", unit)
    warnings = [r.getMessage() for r in caplog.records if r.name == "wsadist"]
    assert len(warnings) == 1
    assert f"false {shlex.join(kernel._FLAGS)} -o " in warnings[0] and " exited 1" in warnings[0]
    assert list(fresh_kernel.iterdir()) == []


MIXED_DOCUMENT = [
    "Quarterly figures, as reported:",
    "",
    "Name        Q1     Q2      Total",
    "Bill Nye    6 ft   190 lb  $1,200",
    "Tina Fey    5 ft           $980",
    "Mike Fox    5 ft   130 lb  $2,045",
    "",
    "The rest of the report is prose, with one long line " * 3,
    "(a)  1,2   $5",
    "(b)  3,4   $6",
    "(c)  5,6   $7",
]


@pytest.fixture(scope="module")
def compiled_regions():
    """Detection on the process's compiled kernel, taken before any test
    swaps it out."""
    assert kernel_backend() == "compiled"
    return detect_tables(MIXED_DOCUMENT)


@needs_compiler
def test_detection_on_fallback_matches_compiled(compiled_regions, fresh_kernel, monkeypatch, caplog):
    monkeypatch.setenv("CC", "/nonexistent/cc")
    with caplog.at_level(logging.WARNING, logger="wsadist"):
        assert detect_tables(MIXED_DOCUMENT) == compiled_regions
        assert kernel_backend() == "interpreted"
    assert len(compiled_regions) == 2
    assert len([r for r in caplog.records if r.name == "wsadist"]) == 1


def todays_key(cc=None):
    """The bytes a build of the kernel with ``$CC`` ``cc`` is keyed by, with
    the platform taken from ``platform``: the source, then the ``repr`` of
    the compiler command, the system and the machine."""
    command = [*shlex.split(cc or os.environ.get("CC") or "cc"), *kernel._FLAGS]
    with open(kernel._SOURCE, "rb") as fh:
        source = fh.read()
    return source + repr((command, platform.system(), platform.machine())).encode()


def build_name(key):
    return f"kernel-{zlib.crc32(key):08x}"


def reload_kernel():
    """The backend after the process forgets its loaded kernel, as a new
    process would find it."""
    kernel._compiled = kernel._UNTRIED
    return kernel_backend()


@needs_compiler
def test_build_from_empty_cache_matches_oracle(fresh_kernel, unit, appendix):
    assert not fresh_kernel.exists()
    assert kernel_backend() == "compiled"
    assert (fresh_kernel.stat().st_mode & 0o777) == 0o700
    # the build, named by its key's CRC-32, and beside it that key's exact bytes
    key = todays_key()
    assert sorted(p.name for p in fresh_kernel.iterdir()) == [
        f"{build_name(key)}.key", f"{build_name(key)}.so"]
    assert (fresh_kernel / f"{build_name(key)}.key").read_bytes() == key
    assert_matches_oracle(unit, appendix, 20261019)


@needs_compiler
def test_key_one_byte_off_rebuilds(fresh_kernel, unit, appendix, caplog):
    """A ``.key`` that differs from today's key in one byte is a stale
    build: it is never loaded -- here it is not a library at all -- but
    built anew, ``.so`` and ``.key``.  (This process already mapped a
    library of that path, which ``dlopen`` would hand back by name, so the
    rebuild shows in the files.)"""
    assert kernel_backend() == "compiled"
    key = todays_key()
    so, key_file = (fresh_kernel / f"{build_name(key)}{suffix}" for suffix in (".so", ".key"))
    key_file.write_bytes(key[:-1] + bytes([key[-1] ^ 1]))
    # a new file in its place: this process maps the build, which must not change
    garbage = fresh_kernel / "garbage"
    garbage.write_bytes(b"not a library")
    garbage.replace(so)
    with caplog.at_level(logging.WARNING, logger="wsadist"):
        assert reload_kernel() == "compiled"
    assert not [r for r in caplog.records if r.name == "wsadist"]
    assert key_file.read_bytes() == key
    assert so.read_bytes() != b"not a library"
    assert_matches_oracle(unit, appendix, 20261105)


@needs_compiler
def test_key_without_its_library_rebuilds(fresh_kernel):
    assert kernel_backend() == "compiled"
    so = fresh_kernel / f"{build_name(todays_key())}.so"
    so.unlink()
    assert reload_kernel() == "compiled"
    assert so.exists()


@pytest.mark.skipif(shutil.which("false") is None, reason="no `false` command")
def test_failed_build_leaves_no_key(fresh_kernel, monkeypatch, caplog):
    """A build that fails after a stale ``.key`` of its name deletes that
    key and leaves no temporary file; the stale library stays, unloaded."""
    monkeypatch.setenv("CC", "false")
    key = todays_key("false")
    fresh_kernel.mkdir(mode=0o700, parents=True)
    (fresh_kernel / f"{build_name(key)}.key").write_bytes(key + b" ")
    (fresh_kernel / f"{build_name(key)}.so").write_bytes(b"not a library")
    with caplog.at_level(logging.WARNING, logger="wsadist"):
        assert kernel_backend() == "interpreted"
    assert " exited 1" in caplog.text
    assert [p.name for p in fresh_kernel.iterdir()] == [f"{build_name(key)}.so"]


@needs_compiler
def test_build_prunes_all_but_the_four_newest_builds(fresh_kernel, unit, appendix):
    """A build deletes the older ``kernel-*.so`` files but the three most
    recently modified, and touches no other file."""
    fresh_kernel.mkdir(mode=0o700, parents=True)
    now = time.time()
    dummies = [fresh_kernel / f"kernel-dummy{i}.so" for i in range(6)]
    for i, path in enumerate(dummies):  # newest first
        path.write_bytes(b"")
        os.utime(path, (now - 1000 * (i + 1),) * 2)
    (fresh_kernel / "notes.txt").write_text("not a build", encoding="utf-8")
    assert kernel_backend() == "compiled"
    built = [p.name for p in fresh_kernel.glob("kernel-*") if p not in dummies]
    assert sorted(built) == [f"{build_name(todays_key())}{s}" for s in (".key", ".so")]
    assert sorted(p.name for p in fresh_kernel.iterdir()) == sorted(
        [*built, *(p.name for p in dummies[:3]), "notes.txt"])
    assert_matches_oracle(unit, appendix, 20261025)


@needs_compiler
def test_pruning_deletes_each_pruned_builds_key(fresh_kernel):
    """Each build that pruning deletes goes with its ``.key``; the kept
    builds keep theirs, and a ``.key`` with no build, other files and
    temporary files are not touched."""
    fresh_kernel.mkdir(mode=0o700, parents=True)
    now = time.time()
    for i in range(6):  # newest first
        for suffix in (".so", ".key"):
            path = fresh_kernel / f"kernel-dummy{i}{suffix}"
            path.write_bytes(b"")
            os.utime(path, (now - 1000 * (i + 1),) * 2)
    others = ["kernel-alone.key", "kernel-dummy9.tmp", "notes.txt"]
    for name in others:
        (fresh_kernel / name).write_bytes(b"")
    assert kernel_backend() == "compiled"
    kept = [f"kernel-dummy{i}{suffix}" for i in range(3) for suffix in (".so", ".key")]
    built = [f"{build_name(todays_key())}{suffix}" for suffix in (".so", ".key")]
    assert sorted(p.name for p in fresh_kernel.iterdir()) == sorted([*built, *kept, *others])


@needs_compiler
def test_cutoff_on_a_native_build(fresh_kernel, monkeypatch, appendix):
    """``-march=native`` may set FLT_EVAL_METHOD to 16 (GCC, with
    AVX512-FP16), which still evaluates double as double: the cutoff stays
    on, and keeps every decision of the exact distances."""
    monkeypatch.setenv("CC", f"{os.environ.get('CC') or 'cc'} -march=native")
    if kernel_backend() != "compiled":
        pytest.skip("no -march=native build")
    rng = random.Random(20261018)
    docs = [["a", "a" * 20, "aa9  (a)", "aa9 (a)"], *(random_document(rng) for _ in range(40))]
    assert any(sim is not None and d is None
               for sim, d, _ in pair_triples(docs[0], NormalizationMode.NONE, appendix, 0.5))
    for doc in docs:
        for model in MODELS:
            assert_cutoff_keeps_decisions(doc, model, 0.5)


def test_cache_writable_by_others_is_refused(fresh_kernel, caplog):
    fresh_kernel.mkdir(parents=True)
    fresh_kernel.chmod(0o777)
    with caplog.at_level(logging.WARNING, logger="wsadist"):
        assert kernel_backend() == "interpreted"
    assert "writable by other users" in caplog.text
    assert list(fresh_kernel.iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "getuid") or os.getuid() != 0,
                    reason="giving a directory to another user needs root")
def test_cache_owned_by_another_user_is_refused(fresh_kernel, caplog):
    fresh_kernel.mkdir(mode=0o700, parents=True)
    os.chown(fresh_kernel, os.getuid() + 1, -1)
    with caplog.at_level(logging.WARNING, logger="wsadist"):
        assert kernel_backend() == "interpreted"
        assert levenshtein_ws_agnostic("a9 ", "A", appendix_model()) == ws_agnostic_naive(
            "a9 ", "A", appendix_model())
    warnings = [r.getMessage() for r in caplog.records if r.name == "wsadist"]
    assert len(warnings) == 1 and "owned by another user" in warnings[0]
    assert list(fresh_kernel.iterdir()) == []


def test_relative_xdg_cache_home_is_ignored(fresh_kernel, monkeypatch, tmp_path):
    """The XDG spec says a relative path is invalid: the build lands in
    ``$HOME/.cache/wsadist``, and nothing under the working directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", "cache")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.chdir(tmp_path)
    assert kernel._cache_dir() == str(tmp_path / "home" / ".cache" / "wsadist")
    backend = kernel_backend()
    assert not (tmp_path / "cache").exists()
    if backend == "compiled":
        built = tmp_path / "home" / ".cache" / "wsadist"
        assert sorted(p.suffix for p in built.iterdir()) == [".key", ".so"]


@needs_compiler
def test_concurrent_builds_share_one_library(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = "import wsadist; print(wsadist.kernel_backend())"
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) for _ in range(2)]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [out.strip() for out, _ in outs] == ["compiled", "compiled"], outs
    assert sorted(p.suffix for p in (tmp_path / "wsadist").iterdir()) == [".key", ".so"]


def test_path_sums_beyond_int64_are_exact():
    big = 1 << 62
    model = CostModel(indel_default=big, replace_default=big)
    assert levenshtein_standard("aaa", "bbb", model) == 3 * big
    assert levenshtein_ws_agnostic("aaa", "bbbb", model) == 4 * big
    assert levenshtein_standard("aaa", "bbb", model) == ws_agnostic_naive(
        "aaa", "bbb", model, pad_limit=0
    )


@needs_compiler
@pytest.mark.parametrize("cost, interpreted", [((1 << 62) - 1, 0), (1 << 62, 2)])
def test_int64_guard_at_its_edge(monkeypatch, cost, interpreted):
    """Two 1-character lines, whose path sums reach twice the dearest cost:
    2 ** 63 - 2 fits int64 and runs compiled, 2 ** 63 runs interpreted."""
    assert kernel_backend() == "compiled"
    calls = []

    def counted(*args):
        calls.append(args)
        return dp_interpreted(*args)

    monkeypatch.setattr("wsadist._interpreted.dp_interpreted", counted)
    model = CostModel(indel_default=cost, replace_default=cost)
    assert levenshtein_ws_agnostic("a", "b", model) == ws_agnostic_naive("a", "b", model)
    assert levenshtein_standard("a", "b", model) == ws_agnostic_naive("a", "b", model,
                                                                      pad_limit=0)
    assert len(calls) == interpreted


@needs_compiler
def test_int64_guard_counts_every_code(monkeypatch):
    """Three 1-character lines at 2 ** 62 - 1: each pair alone would fit
    int64, but the guard bounds every pair by the document's 5 codes,
    breaks included, so they run interpreted, and stay exact."""
    assert kernel_backend() == "compiled"
    calls = []

    def counted(*args):
        calls.append(args)
        return dp_interpreted(*args)

    monkeypatch.setattr("wsadist._interpreted.dp_interpreted", counted)
    cost = (1 << 62) - 1
    model = CostModel(indel_default=cost, replace_default=cost)
    doc = ["a", "b", "c"]
    for ws_agnostic, padding in ((True, {}), (False, {"pad_limit": 0})):
        dists = score_lines(doc, model, ws_agnostic)[2]
        assert list(dists) == [ws_agnostic_naive(a, b, model, **padding)
                               for a, b in pairwise(doc)]
    assert len(calls) == 4


def c_costs(k, m, edges=(1, 1)):
    """``c_call``'s cost block for m row symbols: every indel cost 1, the
    edge costs ``edges``, and replacement rows that, as the kernel's
    contract asks, replace a row symbol below m by itself at 0 and any
    other pair at 1; the shared row m costs 1 throughout, its own column
    read as 0 by the kernel."""
    rows = [int(a != b) for a in range(m) for b in range(k)]
    return [1] * k + [edges[0]] * k + [edges[1]] * k + rows + [1] * k


def c_call(codes, a_end, b_start, k, m, threshold=0.0, edges=(1, 1), brk=-1, pairs=1,
           blank=None, max_cells=(1 << 63) - 1, costs=None):
    """The C entry on ``codes``, stream A their first ``a_end`` and B those
    from ``b_start`` on, split at ``brk``, for ``pairs`` pairs, with every
    indel cost 1, a symbol replaced by another at 1 and the edge costs
    ``edges`` (deletion side, insertion side), all in one ``c_costs``
    block, or the block ``costs``: its return value, the status bytes, the
    heavier weights and the distances (-1 for a pair that cannot reach
    ``threshold``).  The codes go to the kernel as bytes, as
    ``kernel.encode`` makes them."""
    fn = kernel._compiled_library().wsadist_pairs
    codes = array("I", codes).tobytes()
    costs = array("q", c_costs(k, m, edges) if costs is None else costs)
    size = max(pairs, 1)
    status, heavier, dists = array("B", bytes(size)), array("q", [0]) * size, array("q", [0]) * size
    sizes = array("q", [pairs, len(codes) // 4, a_end, b_start, brk, max_cells, k, m])
    result = fn(sizes.buffer_info()[0], codes, blank, costs.buffer_info()[0],
                status.buffer_info()[0], heavier.buffer_info()[0], dists.buffer_info()[0],
                threshold)
    return result, status.tobytes(), list(heavier), list(dists)


def c_pair(codes, lengths, k, m, threshold=0.0, edges=(1, 1), costs=None):
    """``c_call`` on a pair of lines of ``lengths`` codes, the first as
    stream A and the second as B, with no break: its return value, the
    lattice cells computed, and the pair's distance."""
    assert sum(lengths) == len(codes)
    result, _, _, dists = c_call(codes, lengths[0], lengths[0], k, m, threshold, edges,
                                 costs=costs)
    return result, dists[0]


@needs_compiler
def test_c_kernel_refuses_code_outside_its_alphabet():
    assert c_pair([5, 0], [1, 1], 1, 1)[0] == -2
    assert c_pair([0, 5], [1, 1], 1, 1)[0] == -2
    # m outside [0, k]
    assert c_pair([0, 0], [1, 1], 1, -1)[0] == -2
    assert c_pair([0, 0], [1, 1], 1, 2)[0] == -2
    # a valid m: the shared prefix leaves the first line empty, and its
    # last row charges the one insertion
    for m in (0, 1):
        assert c_pair([0, 0, 0], [1, 2], 1, m) == (lattice_cells([0], [0, 0], c_costs(1, m), m), 1)
    # lines that share no prefix: code 1 reads its own row 1 when it is
    # below m, where this block replaces it by 0 at 2, else the shared row
    # m, at 1; the indel path costs 2
    for m, d in ((2, 2), (1, 1), (0, 1)):
        block = [1] * 6 + [2 * (a != b) for a in range(m) for b in range(2)] + [1, 1]
        assert c_pair([1, 0, 0, 0], [2, 2], 2, m, costs=block) == (
            lattice_cells([1, 0], [0, 0], block, m), d)


@needs_compiler
def test_c_kernel_refuses_threshold_outside_0_1():
    for threshold in (-0.5, -1.0, 1.5, float("inf"), float("nan")):
        assert c_pair([0, 1], [1, 1], 2, 0, threshold)[0] == -2
    # d = 1 and D = 1: the pair reaches any threshold up to 0, and is
    # ruled out above it, in its one cell; threshold 0 is no cutoff
    assert c_pair([0, 1], [1, 1], 2, 0, 0.0) == (1, 1)
    assert c_pair([0, 1], [1, 1], 2, 0, -0.0) == (1, 1)
    assert c_pair([0, 1], [1, 1], 2, 0, 1e-300) == (1, -1)
    assert c_pair([0, 1], [1, 1], 2, 0, 1.0) == (1, -1)
    # an identical pair reaches every threshold
    assert c_pair([0, 0], [1, 1], 2, 0, 1.0) == (0, 0)
    # d = D = 2 for an empty line against two characters, either way round:
    # the length bound rules the pair out with no DP
    assert c_pair([0, 1], [0, 2], 2, 0, 1e-300) == (0, -1)
    assert c_pair([0, 1], [2, 0], 2, 0, 1e-300) == (0, -1)
    assert c_pair([], [0, 0], 2, 0, 1.0) == (0, 0)


# edge tables (deletion side, insertion side) with the models and oracle
# paddings that give them over codes 0 and 1, "a" and "b", at indel 1: free
# against whitespace on both sides, on the deletion side only, and the
# indel cost, which is the classical distance
EDGE_CASES = [
    ((0, 0), CostModel(replace_costs={p: 0 for c in "ab" for p in ((c, " "), (" ", c))}), {}),
    ((0, 1), CostModel(symmetric=False, replace_costs={("a", " "): 0, ("b", " "): 0}), {}),
    ((1, 1), CostModel(), {"pad_limit": 0}),
]


@needs_compiler
@pytest.mark.parametrize("codes, lengths, s1, s2", [
    ([0, 1], [0, 2], "", "ab"), ([1, 0], [2, 0], "ba", ""), ([], [0, 0], "", ""),
    ([0, 1, 0], [2, 1], "ab", "a"), ([0, 0, 1], [1, 2], "a", "ab"),
], ids=["empty-first", "empty-second", "both-empty", "longer-first", "longer-second"])
def test_c_kernel_reads_its_edge_tables(codes, lengths, s1, s2):
    """The last row and the last column charge the edge tables, on an
    empty line too, and the two sides' tables are read apart."""
    for edges, model, padding in EDGE_CASES:
        assert model.whitespace_cost("a") == edges[0]
        assert model.whitespace_insert_cost("a") == edges[1]
        assert c_pair(codes, lengths, 2, 0, edges=edges) == (
            lattice_cells(s1, s2, c_costs(2, 0, edges), 0),
            ws_agnostic_naive(s1, s2, model, **padding)), (edges, s1, s2)
    distances = {c_pair(codes, lengths, 2, 0, edges=edges)[1] for edges, _, _ in EDGE_CASES}
    assert len(distances) == (1 if s1 == s2 == "" else 2)


@needs_compiler
def test_kernel_source_compiles_with_strict_warnings():
    cc = shlex.split(os.environ.get("CC") or "cc")
    proc = subprocess.run([*cc, "-O2", "-Wall", "-Wextra", "-Wconversion", "-Werror",
                           "-fsyntax-only", str(kernel._SOURCE)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# only characters that lead no key, and a model that names some only second
NO_MODEL_CHARS = ["Жук", "漢字 ٣٤", "€ Élan"]
SECOND_ONLY = CostModel(symmetric=False, replace_default=4,
                        replace_costs={("x", "a"): 0, ("x", "9"): 2, ("x", " "): 1})


def assert_model_alphabet_matches_oracle(seed):
    """Pairs encoded into one ``model_alphabet`` of both lines and scored
    through the batch entry over its (m+1) x k table, against the
    production distances, which give rows to the first line's leads only,
    and the padded oracle."""
    rng = random.Random(seed)
    for model in [*MODELS, SECOND_ONLY]:
        pairs = [tuple("".join(rng.choice(PIECES) for _ in range(rng.randint(1, 3)))
                       for _ in range(2)) for _ in range(25)]
        pairs += [(s, rng.choice(PIECES)) for s in NO_MODEL_CHARS] + [NO_MODEL_CHARS[:2]]
        for s1, s2 in pairs:
            alphabet = kernel.model_alphabet(model, s1 + s2)
            m = len(alphabet)
            codes = kernel.encode(s1 + s2, alphabet)
            ws_costs, std_costs = (kernel.alphabet_costs(alphabet, m, model, ws_agnostic)
                                   for ws_agnostic in (True, False))
            k = len(alphabet)
            assert len(ws_costs) == len(std_costs) == (m + 4) * k
            # classical: the indel table is both edge tables
            assert std_costs[:k] == std_costs[k:2 * k] == std_costs[2 * k:3 * k]
            ws_d, std_d = (kernel.dp_pairs(codes, len(s1), len(s1), -1, 1, m, costs, 0.0)[2][0]
                           for costs in (ws_costs, std_costs))
            assert ws_d == levenshtein_ws_agnostic(s1, s2, model), (s1, s2, model)
            assert std_d == levenshtein_standard(s1, s2, model), (s1, s2, model)
            # with no padding the oracle is the classical distance
            assert std_d == ws_agnostic_naive(s1, s2, model, pad_limit=0), (s1, s2, model)
            assert ws_d == ws_agnostic_naive(s1, s2, model), (s1, s2, model)


@needs_compiler
def test_model_alphabet_on_compiled_kernel_matches_oracle():
    assert kernel_backend() == "compiled"
    assert_model_alphabet_matches_oracle(20261020)


def test_model_alphabet_on_interpreted_kernel_matches_oracle(fresh_kernel, monkeypatch, caplog):
    monkeypatch.setenv("CC", "/nonexistent/cc")
    with caplog.at_level(logging.WARNING, logger="wsadist"):
        assert kernel_backend() == "interpreted"
        assert_model_alphabet_matches_oracle(20261021)


# costs beyond int64: the cost tables are lists
LIST_TABLES = CostModel(replace_costs={("a", "9"): 1 << 64, ("9", "a"): 1 << 64})
EDGE_DOCUMENTS = [[], ["a"], ["a", "9"], ["", "  ", "\t", ""], ["a", "", "a"], ["", ""]]


def encode_document(doc, model, ws_agnostic, leads=None):
    """``doc``'s lines joined at "\n", as codes in one ``model_alphabet`` of
    ``leads`` (default: the whole text), the break's code (-1 when the text
    has none), m, and the model's cost tables over that alphabet for the
    ws-agnostic or the classical distance."""
    text = "\n".join(doc)
    alphabet = kernel.model_alphabet(model, text if leads is None else leads)
    m = len(alphabet)
    codes = kernel.encode(text, alphabet)
    return (codes, alphabet.get(ord("\n"), -1), m,
            kernel.alphabet_costs(alphabet, m, model, ws_agnostic))


def indel_sum(line, model):
    return sum(map(model.indel, line))


def assert_pairs_match(doc, model):
    """The batch entry on ``doc``'s adjacent pairs, ws-agnostic and
    classical, against the weights, ``line_whitespace_cost`` for the
    ws-agnostic distance and the sum of indel costs, which nothing reads,
    for the classical one; the single-pair distances; and, on short pairs,
    the padded oracle (with no padding for the classical).  Every pair is
    scored, or with ``blank`` every pair of two lines with a character
    that is not ``str.isspace``; the cells are ``lattice_cells`` of each
    scored pair, under the document's cost block."""
    for ws_agnostic, weight, single, padding in (
            (True, line_whitespace_cost, levenshtein_ws_agnostic, {}),
            (False, indel_sum, levenshtein_standard, {"pad_limit": 0})):
        for blank in (False, True):
            status, heavier, dists, cells = score_lines(doc, model, ws_agnostic, blank=blank)
            _, _, m, costs = encode_document(doc, model, ws_agnostic)
            assert list(heavier) == [max(weight(a, model), weight(b, model))
                                     for a, b in pairwise(doc)], doc
            assert status == bytes(not blank or bool(a.strip() and b.strip())
                                   for a, b in pairwise(doc)), doc
            assert cells == sum(lattice_cells(a, b, costs, m)
                                for scored, a, b in zip(status, doc, doc[1:]) if scored), doc
            for j, scored in enumerate(status):
                if not scored:
                    assert dists[j] == 0
                    continue
                assert dists[j] == single(doc[j], doc[j + 1], model), (doc, j, model)
                if len(doc[j]) + len(doc[j + 1]) <= 24:
                    assert dists[j] == ws_agnostic_naive(doc[j], doc[j + 1], model,
                                                         **padding), (doc, j, model)


def assert_batch_matches(seed):
    rng = random.Random(seed)
    for model in [*MODELS, LIST_TABLES]:
        for doc in [*EDGE_DOCUMENTS, *(random_document(rng) for _ in range(40))]:
            assert_pairs_match(doc, model)


@needs_compiler
def test_batch_on_compiled_kernel_matches_single_pairs_and_oracle():
    assert kernel_backend() == "compiled"
    assert_batch_matches(20261022)


def test_batch_on_interpreted_kernel_matches_single_pairs_and_oracle(fresh_kernel, monkeypatch,
                                                                     caplog):
    monkeypatch.setenv("CC", "/nonexistent/cc")
    with caplog.at_level(logging.WARNING, logger="wsadist"):
        assert kernel_backend() == "interpreted"
        assert_batch_matches(20261023)


def test_batch_takes_list_tables_with_every_line_empty():
    # the leads of LIST_TABLES give its rows, and so its cost beyond int64;
    # two streams with no codes: every line is past a stream's end, empty
    for ws_agnostic in (True, False):
        _, _, m, costs = encode_document([""], LIST_TABLES, ws_agnostic, leads="a9")
        assert isinstance(costs, list)
        assert kernel.dp_pairs(b"", 0, 0, -1, 2, m, costs, 0.0) == (b"\1\1", [0, 0], [0, 0], 0)


@needs_compiler
def test_c_batch_scores_a_document_of_empty_lines_from_empty_bytes():
    assert kernel_backend() == "compiled"
    for ws_agnostic in (True, False):
        codes, _, m, costs = encode_document([""], MODELS[0], ws_agnostic)
        assert codes == b""
        status, heavier, dists, cells = kernel.dp_pairs(codes, 0, 0, -1, 2, m, costs, 0.0)
        assert (status, list(heavier), list(dists), cells) == (b"\1\1", [0, 0], [0, 0], 0)


@needs_compiler
def test_dp_pairs_raises_the_kernels_refusal():
    """A code outside the alphabet, or streams outside the codes, make the
    kernel return -2, which ``dp_pairs`` raises."""
    assert kernel_backend() == "compiled"
    codes, brk, m, costs = encode_document(["a", "9"], MODELS[0], True)
    outside = array("I", [0, brk, len(costs) // (m + 4)]).tobytes()
    for bad_codes, a_end in ((outside, 3), (codes, 4)):
        with pytest.raises(RuntimeError, match="^DP kernel refused a symbol code outside its "
                                               "alphabet, .* streams outside its codes"):
            kernel.dp_pairs(bad_codes, a_end, 2, brk, 1, m, costs, 0.0)


@needs_compiler
def test_c_batch_refuses_code_outside_its_alphabet_or_m():
    assert c_pair([0, 1], [1, 1], 2, 0) == (1, 1)
    assert c_pair([0, 2], [1, 1], 2, 0)[0] == -2
    assert c_pair([0, 1], [1, 1], 2, -1)[0] == -2
    assert c_pair([0, 1], [1, 1], 2, 3)[0] == -2
    # streams outside the codes, or a negative pair count or cell limit
    assert c_call([0, 1], 3, 1, 2, 0)[0] == -2
    assert c_call([0, 1], 1, 3, 2, 0)[0] == -2
    assert c_call([0, 1], -1, 1, 2, 0)[0] == -2
    assert c_call([0, 1], 1, -1, 2, 0)[0] == -2
    assert c_call([0, 1], 1, 1, 2, 0, pairs=-1)[0] == -2
    assert c_call([0, 1], 1, 1, 2, 0, max_cells=-1)[0] == -2
    # a code past the alphabet is refused, not taken for a break outside it
    assert c_call([0, 2, 1], 3, 3, 2, 0, brk=2)[0] == -2
    # a code past the pairs asked for is never read
    assert c_call([0, 1, 2, 9], 4, 1, 3, 0, brk=2)[0] == 2


def reference_streams(codes, a_end, b_start, brk, pairs, costs, m, blank, max_cells):
    """``wsadist_pairs``'s return value, status, heavier weights and
    distances, by its rule in plain Python: ``dp_interpreted`` on each
    scored pair's full lattice, and ``lattice_cells`` for the cells."""
    k = len(costs) // (m + 4)

    def lines(stream):
        found = [[]]
        for c in stream:
            if c == brk:
                found.append([])
            else:
                found[-1].append(c)
        return (found + [[]] * pairs)[:pairs]

    status, heavier, dists, cells = bytearray(pairs), [0] * pairs, [0] * pairs, 0
    for i, (one, two) in enumerate(zip(lines(codes[:a_end]), lines(codes[b_start:]))):
        heavier[i] = max(sum(costs[k + c] for c in one), sum(costs[k + c] for c in two))
        if blank is not None and not (any(not blank[c] for c in one)
                                      and any(not blank[c] for c in two)):
            continue
        if len(one) * len(two) > max_cells:
            status[i] = 2
            continue
        status[i] = 1
        dists[i] = dp_interpreted(one, two, costs, m)
        cells += lattice_cells(one, two, costs, m)
    return cells, bytes(status), heavier, dists


@needs_compiler
def test_c_kernel_finds_the_lines_of_two_streams():
    """Random streams, split at a break code or at none, laid out as two
    texts, as a document and itself from its second line on, or anywhere
    in the codes, for more or fewer pairs than they have lines: the C
    entry against ``reference_streams``, with and without a table of
    blank codes, with and without a cell limit that marks pairs."""
    assert kernel_backend() == "compiled"
    rng = random.Random(20261105)
    for _ in range(3000):
        k = rng.randint(1, 4)
        m, brk = rng.randint(0, k), rng.choice([-1, k - 1, k - 1, k])
        codes = [rng.randrange(k) for _ in range(rng.randint(0, 16))]
        layout = rng.randrange(3)
        if layout == 0:  # two texts
            a_end = b_start = rng.randint(0, len(codes))
        elif layout == 1:  # a document and itself from its second line on
            a_end = len(codes)
            b_start = codes.index(brk) + 1 if brk in codes else len(codes)
        else:
            a_end, b_start = rng.randint(0, len(codes)), rng.randint(0, len(codes))
        pairs = rng.randint(0, 6)
        edges = (rng.randint(0, 1), rng.randint(0, 1))
        blank = rng.choice([None, bytes(rng.randint(0, 1) for _ in range(k))])
        max_cells = rng.choice([(1 << 63) - 1, rng.randint(0, 12)])
        costs = c_costs(k, m, edges)
        result, status, heavier, dists = c_call(codes, a_end, b_start, k, m, 0.0, edges, brk,
                                                pairs, blank, max_cells)
        expected = reference_streams(codes, a_end, b_start, brk, pairs, costs, m, blank,
                                     max_cells)
        case = (codes, a_end, b_start, brk, pairs, blank, max_cells)
        assert (result, status[:pairs], heavier[:pairs], dists[:pairs]) == expected, case


SANITIZED_RUN = """
import os
import random
import tempfile
from wsadist import (CostModel, DetectConfig, NormalizationMode, detect_tables, kernel_backend,
                     levenshtein_standard, levenshtein_ws_agnostic, serialize_model)
from wsadist.cli import main
from test_table_detect import MODELS, pair_triples, random_document, skewed_document

print(kernel_backend())
rng = random.Random(20261024)
# the last document's lines share prefixes, and one is a prefix of the next
docs = [random_document(rng) for _ in range(60)] + [["a", "9"], ["Ab 9", "A 99"], ["x", "", "y"],
                                                    ["Ab 9 (a)", "Ab 9 (b)", "Ab 9", "Ab 9   "]]
# two 1-character lines reach 2 ** 63 here: past int64 in C; and 2 ** 63 - 2
# at the edge, where they run compiled
big = CostModel(indel_default=1 << 62, replace_default=1 << 62)
edge = CostModel(indel_default=(1 << 62) - 1, replace_default=(1 << 62) - 1)
for model in [*MODELS, big]:
    print([detect_tables(doc, DetectConfig(threshold=0.0, min_rows=2, model=model))
           for doc in docs])
print(levenshtein_standard("aaa", "bbb", big), levenshtein_ws_agnostic("aaa", "bbbb", big),
      levenshtein_ws_agnostic("a", "b", big))
print([(levenshtein_standard(a, b, edge), levenshtein_ws_agnostic(a, b, edge))
       for a, b in [("a", "b"), ("a", "a"), ("a", " "), (" ", "b")]],
      [pair_triples(["a", "b", " a"][:n], NormalizationMode.NONE, edge, threshold)
       for n in (2, 3) for threshold in (0.0, 0.5)])
# detection's cutoff at several thresholds, on skewed line lengths too, and
# under a model whose indels and replacements come near the int64 guard
# (a document of up to 127 characters runs compiled: 127 * 2 ** 56 < 2 ** 63)
# while its whitespace costs keep D small, so that the band is the diagonal
# alone and the cutoff sits next to huge costs
skewed = [skewed_document(rng) for _ in range(30)]
near = CostModel(indel_default=1 << 56, replace_default=1 << 56,
                 replace_costs={p: 1 for c in "aA9b" for p in ((c, " "), (" ", c))})
for model in [*MODELS, near]:
    for threshold in (0.2, 0.5, 0.61, 0.9, 1.0):
        print([pair_triples(doc, NormalizationMode.NONE, model, threshold)
               for doc in docs[:20] + skewed])
# the compiled kernel rules scored pairs out under the near-guard model
assert kernel_backend() != "compiled" or any(
    sim is not None and d is None
    for doc in skewed for sim, d, _ in pair_triples(doc, NormalizationMode.NONE, near, 0.5))
# single pairs, both branches of the kernel's one entry
pairs = [(doc[i], doc[i + 1]) for doc in docs[:20] for i in range(len(doc) - 1)]
for model in MODELS:
    print([(levenshtein_standard(a, b, model), levenshtein_ws_agnostic(a, b, model))
           for a, b in pairs])
# `dist --files`: every line pair of two files in one kernel call
with tempfile.TemporaryDirectory() as tmp:
    paths = [os.path.join(tmp, name) for name in ("left", "right", "model.json")]
    # the first seven pairs: an empty left line, an empty right line, both,
    # two identical lines, two of one length that differ in their last
    # character, and a line that is a prefix of the other, either way round
    for path, part in zip(paths, ([["", "A 9", "", "Ab 9", "Ab 9", "Ab 9", "Ab 9  "]] + docs[:30],
                                  [["a", "", "", "Ab 9", "Ab 8", "Ab 9 (b)", "Ab"]]
                                  + docs[30:60])):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\\n" for doc in part for line in doc)
    # documents of empty lines alone, whose codes are an empty array
    print(detect_tables(["", "", ""]))
    blank = os.path.join(tmp, "blank")
    with open(blank, "w", encoding="utf-8") as fh:
        fh.write("\\n" * 3)
    assert main(["dist", "--files", "--format", "json", blank, blank]) == 0
    for model in [*MODELS, big]:
        with open(paths[2], "w", encoding="utf-8") as fh:
            fh.write(serialize_model(model))
        for mode in ("ws-agnostic", "standard"):
            assert main(["dist", "--files", "--mode", mode, "--model", paths[2],
                         "--format", "json", *paths[:2]]) == 0
    # the kernel's line scan at each stream's end: texts whose lines end in
    # "\\r\\n", "\\r\\r\\n" or "\\n", with a lone "\\r", NUL and non-ASCII inside,
    # the last line ending in "\\n", "\\r" or nothing; unequal line counts, an
    # empty file and files of "\\n" alone
    texts = ["", "\\n", "\\n\\n", "a\\r\\nb\\r\\r\\nc\\r", "\\0x\\ry\\n\u0416\u0443 9\\n",
             "Ab 9\\nAb 9", "a\\n\\r", "9\\t9\\r\\n\\r\\n \\n"]
    for model in [*MODELS[:2], big]:
        with open(paths[2], "w", encoding="utf-8") as fh:
            fh.write(serialize_model(model))
        for left in texts:
            for right in texts:
                for path, text in zip(paths, (left, right)):
                    with open(path, "w", encoding="utf-8", newline="") as fh:
                        fh.write(text)
                for mode in ("ws-agnostic", "standard"):
                    assert main(["dist", "--files", "--mode", mode, "--model", paths[2],
                                 *paths[:2]]) == 0
# caller lines that hold line breaks stay one line each, in a list or a generator
broken = [["a\\n9", "a\\r9", "\\r\\n", "Ab\\t9\\n"], ["\\n", "\\0\\n", "a 9\\r", "a 9"],
          ["".join(map(chr, range(32))) + "a\\t9"] * 3]
for model in [*MODELS, big]:
    for threshold in (0.0, 0.5):
        config = DetectConfig(threshold=threshold, min_rows=2, model=model)
        print([detect_tables(doc, config) for doc in broken],
              [detect_tables(iter(doc), config) for doc in broken])
"""


def run_sanitized(tmp_path, flags, **env):
    """``SANITIZED_RUN`` on a kernel built with ``$CC`` plus ``flags``, in
    a fresh process with ``env`` added, against the same run on a plain
    build; skipped when the sanitized build fails."""
    cc = os.environ.get("CC") or "cc"
    plain = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), CC=cc,
                 PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).parent)]))
    proc = subprocess.run([sys.executable, "-c", SANITIZED_RUN], capture_output=True, text=True,
                          env=dict(plain, CC=f"{cc} {flags}", **env), timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    backend, *results = proc.stdout.splitlines()
    if backend != "compiled":
        pytest.skip(f"no sanitized build: {proc.stderr.strip()[-400:]}")
    local = subprocess.run([sys.executable, "-c", SANITIZED_RUN], capture_output=True, text=True,
                           env=plain, timeout=300)
    assert local.stdout.splitlines() == ["compiled", *results]


@needs_compiler
def test_kernel_under_sanitizers(tmp_path):
    """Detection with and without a cutoff, single pairs, ``dist --files``
    and the beyond-int64 cases on a kernel built with the
    undefined-behaviour and bounds sanitizers, which abort on a signed
    overflow or an out-of-bounds index; skipped when that build fails.
    The bounds sanitizer cannot see an index that stays inside the
    kernel's one allocation, so the cutoff's band is checked against
    exact distances in ``test_table_detect`` too."""
    run_sanitized(tmp_path, "-fsanitize=undefined,bounds -fno-sanitize-recover=all")


@needs_compiler
def test_kernel_under_address_sanitizer(tmp_path):
    """The same run on a kernel built with AddressSanitizer, which aborts
    on a read or a write outside any allocation: past the end of the
    codes that Python hands the kernel, say.  Python's own allocator is
    switched off, so that each of its objects is an allocation of its
    own, and the ASan runtime is preloaded into the interpreter, which is
    not built with it.  ASan cannot see a read that stays inside the
    kernel's one ``base`` allocation, which holds its rows and tables.
    The ``$CC`` holds flags, which the build's key keeps apart from the
    plain build's.  Skipped when there is no ASan runtime or the build
    fails."""
    cc = os.environ.get("CC") or "cc"
    runtime = subprocess.run([*shlex.split(cc), "-print-file-name=libasan.so"],
                             capture_output=True, text=True).stdout.strip()
    if not os.path.isfile(runtime):
        pytest.skip(f"no ASan runtime: {cc} -print-file-name=libasan.so gives {runtime!r}")
    run_sanitized(tmp_path, "-fsanitize=address", LD_PRELOAD=runtime,
                  ASAN_OPTIONS="detect_leaks=0", PYTHONMALLOC="malloc")


def random_lines(rng, count):
    """Lines of letters and digits, ASCII or not, with tabs expanded and a
    "\r" inside some of them."""
    pieces = [*PIECES, "x\ry", "\r", "9\t\r", "Ǆ", "ß", "𝔸", "²"]
    return ["".join(rng.choice(pieces) for _ in range(rng.randint(0, 6))).expandtabs(4)
            for _ in range(count)]


@needs_compiler
@pytest.mark.parametrize("mode", list(NormalizationMode))
def test_score_document_normalizes_as_each_line_would(mode):
    """Normalizing the joined document keeps every line where it was and
    every break a break: the statuses, weights, distances and cells equal
    those of the lines normalized one by one."""
    assert kernel_backend() == "compiled"
    rng = random.Random(20261026)
    for _ in range(30):
        lines = random_lines(rng, rng.randint(0, 8))
        for model in MODELS:
            for threshold in (0.0, 0.5):
                scored = score_lines(lines, model, True, threshold, mode, blank=True)
                normalized = [normalize_line(line, mode) for line in lines]
                expected = score_lines(normalized, model, True, threshold, blank=True)
                assert [bytes(scored[0]), *map(list, scored[1:3]), scored[3]] == [
                    bytes(expected[0]), *map(list, expected[1:3]), expected[3]], (lines, model)


def assert_identical_lines_score_zero(seed):
    """A pair of identical lines, which the compiled kernel scores 0 with
    no DP, is 0 under every model, at threshold 0 and 1, with an empty
    line too; the same line with one character changed, at its start or
    its end, still equals the oracle."""
    rng = random.Random(seed)
    lines = [""] + ["".join(rng.choice(PIECES) for _ in range(rng.randint(1, 3)))
                    for _ in range(12)]
    for model in MODELS:
        for line in lines:
            # the line with its first, or its last, character changed
            others = [line[:k] + ("a" if line[k] != "a" else "9") + line[k + 1:]
                      for k in {0, len(line) - 1}] if line else [line]
            for changed in others:
                doc = [line, line, changed]
                for ws_agnostic, padding in ((True, {}), (False, {"pad_limit": 0})):
                    exact, cut = (score_lines(doc, model, ws_agnostic, threshold)[2]
                                  for threshold in (0.0, 1.0))
                    assert exact[0] == cut[0] == 0, (line, model)
                    assert exact[1] == ws_agnostic_naive(line, changed, model, **padding), (
                        line, changed, model)


@needs_compiler
def test_identical_lines_on_compiled_kernel_score_zero():
    assert kernel_backend() == "compiled"
    assert_identical_lines_score_zero(20261103)


def test_identical_lines_on_interpreted_kernel_score_zero(fresh_kernel, monkeypatch, caplog):
    monkeypatch.setenv("CC", "/nonexistent/cc")
    with caplog.at_level(logging.WARNING, logger="wsadist"):
        assert kernel_backend() == "interpreted"
        assert_identical_lines_score_zero(20261104)


# indels of 9 and 1 with a free replacement between the two: the dearest
# indel less the cheapest exceeds the cheapest replacement, so no shared
# prefix may be skipped; skipping "xa" or "  " would give the classical
# distances 19 and 11
UNEVEN_INDELS = CostModel(indel_costs={"a": 9, "x": 1},
                          replace_costs={("a", "x"): 0, ("x", "a"): 0})
UNSKIPPABLE = [("xaxaa", "xa", 11), ("  a  ", "  ", 4)]


def assert_unskippable_prefix_is_scored():
    """Under ``UNEVEN_INDELS`` both distances equal the oracle, and the
    kernel computes every cell of each pair, its shared prefix too."""
    for s1, s2, classical in UNSKIPPABLE:
        for ws_agnostic, padding in ((True, {}), (False, {"pad_limit": 0})):
            _, _, dists, cells = kernel.score_document(s1 + s2, len(s1), len(s1), None, 1,
                                                       UNEVEN_INDELS, ws_agnostic, 0.0)
            assert dists[0] == ws_agnostic_naive(s1, s2, UNEVEN_INDELS, **padding), (s1, s2)
            assert cells == len(s1) * len(s2), (s1, s2)
        assert levenshtein_standard(s1, s2, UNEVEN_INDELS) == classical


@needs_compiler
def test_unskippable_prefix_on_compiled_kernel_is_scored():
    assert kernel_backend() == "compiled"
    assert_unskippable_prefix_is_scored()


def test_unskippable_prefix_on_interpreted_kernel_is_scored(fresh_kernel, monkeypatch, caplog):
    monkeypatch.setenv("CC", "/nonexistent/cc")
    with caplog.at_level(logging.WARNING, logger="wsadist"):
        assert kernel_backend() == "interpreted"
        assert_unskippable_prefix_is_scored()


def assert_trailing_whitespace_needs_no_cells():
    """Under appendix-a, a line against itself with trailing spaces, either
    way round: past the shared prefix one line is empty, so the pair costs
    its edge sum with no cells, 0 ws-agnostic and a space's indel each for
    the classical distance."""
    model = appendix_model()
    for s1, s2 in (("Aa 9", "Aa 9   "), ("Aa 9   ", "Aa 9")):
        for ws_agnostic, expected, single in ((True, 0, levenshtein_ws_agnostic),
                                              (False, 3, levenshtein_standard)):
            _, _, dists, cells = kernel.score_document(s1 + s2, len(s1), len(s1), None, 1,
                                                       model, ws_agnostic, 0.0)
            assert (dists[0], cells) == (expected, 0), (s1, s2, ws_agnostic)
            assert single(s1, s2, model) == expected


@needs_compiler
def test_trailing_whitespace_on_compiled_kernel_needs_no_cells():
    assert kernel_backend() == "compiled"
    assert_trailing_whitespace_needs_no_cells()


def test_trailing_whitespace_on_interpreted_kernel_needs_no_cells(fresh_kernel, monkeypatch,
                                                                   caplog):
    monkeypatch.setenv("CC", "/nonexistent/cc")
    with caplog.at_level(logging.WARNING, logger="wsadist"):
        assert kernel_backend() == "interpreted"
        assert_trailing_whitespace_needs_no_cells()


def test_pair_of_distinct_symbols_has_one_shared_row():
    """Two 2,000-character lines of distinct CJK characters, none of which
    leads a key of the appendix model: the replacement table is the one
    shared row, and the pair stays in small memory."""
    model = appendix_model()
    s1, s2 = ("".join(chr(0x4E00 + i) for i in range(start, start + 2000))
              for start in (0, 2000))
    alphabet = kernel.model_alphabet(model, s1)
    m = len(alphabet)
    kernel.encode(s1 + s2, alphabet)
    rep = kernel.alphabet_costs(alphabet, m, model, True)[3 * len(alphabet):]
    assert m == 0 and len(rep) == (m + 1) * len(alphabet) == 4000
    tracemalloc.start()
    try:
        d = levenshtein_ws_agnostic(s1, s2, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # every character is deleted or inserted at 1, against whitespace or not
    assert d == 4000
    assert peak < 8 << 20, peak


def test_encode_makes_one_copy_of_the_codes():
    """``encode`` on a 1M-character text holds the translated text, one
    byte a character over a small alphabet, and the four bytes of each
    code, and no second copy of the codes."""
    text = ("Élan 1\tb  | x=42, y=-7 (ok)\n" * 40_000)[:1_000_000]
    tracemalloc.start()
    try:
        codes = kernel.encode(text, kernel.Alphabet())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(codes) == 4 * len(text)
    assert peak < 6 * len(text), peak / len(text)


# What a fresh process may not import: numpy and numba are gone from the
# program, and dataclasses (with inspect), logging and platform add about
# 25 ms to every run of the CLI; hashlib (with OpenSSL), shlex, threading,
# pathlib and the oracles add 12-15 ms more to an import of 44-58 ms under
# python -S, and __future__, which no code reads at run time, 0.3 ms; json,
# about 2 ms, is left to a model file and serialize_model.  logging is
# allowed only for the fallback's warning, when there is no compiled
# kernel, and shlex only to split a $CC that is set.  The builder and the
# interpreted route load only on a cache miss or with no compiled kernel,
# and the interpreted route's cutoff rule also where the compiled cutoff
# cannot be exact.
ALLOWED = """
import os
from wsadist import kernel
allowed = set()
if kernel.kernel_backend() == "interpreted":
    allowed |= {"logging", "wsadist._build", "wsadist._interpreted"}
elif not kernel._compiled.exact_cutoff:
    allowed.add("wsadist._interpreted")
if os.environ.get("CC"):
    allowed.add("shlex")
"""
IMPORT_GUARD = ALLOWED + """
import sys
from wsadist.cli import main
doc, left, right, *forbidden = sys.argv[1:]
assert main(["detect", doc]) == 0
assert main(["detect", "--format", "json", doc]) == 0
assert main(["dist", "--files", left, right]) == 0
assert main(["dist", "--files", "--format", "json", left, right]) == 0
print(sorted(set(forbidden) & set(sys.modules) - allowed))
"""
# dist alone: no detection either
DIST_IMPORT_GUARD = ALLOWED + """
import sys
from wsadist.cli import main
left, right, *forbidden = sys.argv[1:]
assert main(["dist", "--files", left, right]) == 0
assert main(["dist", "Ab 9", "Ab  9 "]) == 0
print(sorted(set(forbidden) & set(sys.modules) - allowed))
"""


def test_import_needs_neither_numpy_nor_numba(tmp_path):
    """Nor dataclasses, inspect, logging, platform, importlib.resources,
    hashlib, shlex, threading, pathlib, the oracles, ``__future__``, the
    kernel's builder or its interpreted route, after ``import
    wsadist.cli`` and a run of ``detect`` and of ``dist --files``, in
    either format, on tiny files, in a fresh process that finds the
    compiled kernel cached.  It runs under ``python -S``, so that no
    ``site`` hook (a ``.pth`` file) loads any of them first: the appendix
    preset is built from data in ``cost_model``, without
    ``importlib.resources`` and the ``zipfile`` and ``tempfile`` that it
    pulls in, and without ``json``, which neither format's output needs
    either.  Nor argparse, which the CLI's own parser replaced: under
    ``-S``, ``-X importtime`` read 1.1 ms for argparse itself and 0.6 ms
    for the ``gettext`` it imports, and building its parser imported
    ``locale`` (0.9 ms) and ``shutil`` (1.8 ms, with ``bz2``, ``lzma`` and
    ``zlib``) on every run.  A run of ``dist`` alone loads no detection."""
    files = [tmp_path / name for name in ("doc", "left", "right")]
    for path, text in zip(files, ("a 1\tb\nc 2\td\ne 3\tf\n", "x 1\n\ny\n", "x 2\nz\n")):
        path.write_text(text, encoding="utf-8")
    forbidden = ["numpy", "numba", "dataclasses", "inspect", "logging", "platform",
                 "importlib.resources", "zipfile", "tempfile", "hashlib", "_hashlib", "shlex",
                 "threading", "pathlib", "wsadist.oracles", "__future__", "argparse", "gettext",
                 "locale", "shutil", "json", "json.decoder", "json.encoder", "_json",
                 "wsadist._build", "wsadist._interpreted"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", IMPORT_GUARD, *map(str, files),
                          *forbidden], env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[:2] == [
        "0 2 1.0000", '{"regions": [{"start_line": 0, "end_line": 2, "score": 1.0}]}']
    assert out.splitlines()[-1] == "[]"
    out = subprocess.run([sys.executable, "-S", "-c", DIST_IMPORT_GUARD, *map(str, files[1:]),
                          *forbidden, "wsadist.table_detect"], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["0\t0", "1\t1", "2\t1", "total\t2", "1", "[]"]


ORACLES_ON_FIRST_USE = """
import sys
import wsadist
assert "wsadist.oracles" not in sys.modules
print(wsadist.ws_agnostic_naive("aaaaA  99  99", "aaaaA", wsadist.appendix_model()),
      wsadist.ws_agnostic_recursive_unit("abc", "abd"))
names = {}
exec("from wsadist import *", names)
print(sorted(set(wsadist.__all__) - set(names)), names["ws_agnostic_naive"] is
      wsadist.oracles.ws_agnostic_naive)
print(wsadist.SizeLimitError is wsadist.oracles.SizeLimitError)
"""

NAIVE_ORACLE_CLI = """
import sys
from wsadist.cli import main
assert "wsadist.oracles" not in sys.modules
left, right = sys.argv[1:]
assert main(["dist", "--mode", "naive-oracle", "Ab 9  ", "Ab  99"]) == 0
assert main(["dist", "--mode", "naive-oracle", "--files", "--format", "json", left, right]) == 0
print("wsadist.oracles" in sys.modules)
"""


def test_oracles_load_on_first_use(tmp_path):
    """In a fresh process, the package's oracles resolve on first access,
    ``from wsadist import *`` still gives every name of ``__all__``, there
    is one ``SizeLimitError``, and ``dist --mode naive-oracle`` prints what
    it did when the oracles were imported with the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", ORACLES_ON_FIRST_USE], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["4 1", "[] True", "True"]
    files = [tmp_path / "left", tmp_path / "right"]
    for path, text in zip(files, ("x 1\n\ny  \n", "x 2\nz\n")):
        path.write_text(text, encoding="utf-8")
    out = subprocess.run([sys.executable, "-c", NAIVE_ORACLE_CLI, *map(str, files)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [
        "2",
        '{"pairs": [{"line": 0, "cost": 0}, {"line": 1, "cost": 1}, {"line": 2, "cost": 1}], '
        '"total": 2}',
        "True",
    ]


DETECTION_ON_FIRST_USE = """
import pickle
import sys
import wsadist
assert "wsadist.table_detect" not in sys.modules
import wsadist.table_detect
import wsadist.distance
print(wsadist.distance is sys.modules["wsadist.distance"].distance)
names = {}
exec("from wsadist import *", names)
print(sorted(set(wsadist.__all__) - set(names)), wsadist.distance is names["distance"])
records = (wsadist.TableRegion(1, 3, 0.75), wsadist.DetectConfig(threshold=0.25, min_rows=4))
print(pickle.loads(pickle.dumps(records)) == records,
      wsadist.DetectConfig is wsadist.table_detect.DetectConfig)
"""


def test_detection_names_resolve_on_first_use():
    """In a fresh process, ``import wsadist`` loads no detection, and once
    ``wsadist.table_detect`` and ``wsadist.distance`` are imported by name,
    ``wsadist.distance`` is still the function ``distance()``, which
    shadows its submodule; ``from wsadist import *`` gives every name of
    ``__all__``, and ``TableRegion`` and ``DetectConfig`` survive a pickle
    round trip."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", DETECTION_ON_FIRST_USE], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["True", "[] True", "True True"]
