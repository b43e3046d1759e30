"""The compiled DP kernel: its build into the per-user cache, the
interpreted fallback and its one warning, and the int64 guard.  Both
kernels are checked against the independent padded oracle."""

import logging
import os
import random
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import wsadist.kernel as kernel
from wsadist import (
    CostModel,
    detect_tables,
    kernel_backend,
    levenshtein_standard,
    levenshtein_ws_agnostic,
    ws_agnostic_naive,
)

ALPHABET = "aA9(),$ "
SRC = Path(__file__).resolve().parents[1] / "src"

needs_compiler = pytest.mark.skipif(
    shutil.which((os.environ.get("CC") or "cc").split()[0]) is None,
    reason="no C compiler to build the kernel with",
)


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """The kernel as a new process finds it, with an empty cache directory;
    the process's loaded kernel comes back afterwards."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(kernel, "_compiled", kernel._UNTRIED)
    return tmp_path / "cache" / "wsadist"


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


@needs_compiler
def test_build_from_empty_cache_matches_oracle(fresh_kernel, unit, appendix):
    assert not fresh_kernel.exists()
    assert kernel_backend() == "compiled"
    assert (fresh_kernel.stat().st_mode & 0o777) == 0o700
    assert [p.suffix for p in fresh_kernel.iterdir()] == [".so"]
    assert_matches_oracle(unit, appendix, 20261019)


def test_cache_writable_by_others_is_refused(fresh_kernel, caplog):
    fresh_kernel.mkdir(parents=True)
    fresh_kernel.chmod(0o777)
    with caplog.at_level(logging.WARNING, logger="wsadist"):
        assert kernel_backend() == "interpreted"
    assert "writable by other users" in caplog.text
    assert list(fresh_kernel.iterdir()) == []


@needs_compiler
def test_concurrent_builds_share_one_library(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = "import wsadist; print(wsadist.kernel_backend())"
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) for _ in range(2)]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [out.strip() for out, _ in outs] == ["compiled", "compiled"], outs
    assert [p.suffix for p in (tmp_path / "wsadist").iterdir()] == [".so"]


def test_path_sums_beyond_int64_are_exact():
    big = 1 << 62
    model = CostModel(indel_default=big, replace_default=big)
    assert levenshtein_standard("aaa", "bbb", model) == 3 * big
    assert levenshtein_ws_agnostic("aaa", "bbbb", model) == 4 * big
    assert levenshtein_standard("aaa", "bbb", model) == ws_agnostic_naive(
        "aaa", "bbb", model, pad_limit=0
    )


@needs_compiler
def test_c_kernel_refuses_code_outside_its_alphabet():
    fn = kernel._compiled_kernel()
    one, bad, zero = array("q", [1]), array("I", [5]), array("I", [0])
    c, b, z = (x.buffer_info()[0] for x in (one, bad, zero))
    assert fn(1, b, 1, z, 1, c, c, 1, c, c, c, 1) == -2
    assert fn(1, z, 1, b, 1, c, c, 1, c, c, c, 1) == -2


def test_import_needs_neither_numpy_nor_numba():
    code = "import sys, wsadist.cli; print(sorted({'numpy', 'numba'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
