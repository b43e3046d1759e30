"""The library's detection output on the benchmark's corpus stays as
pinned: seeds 0-2 of each workload, made by ``perfbench/corpus.py`` and
digested by ``perfbench/run.py``'s ``region_digest``, against
``perfbench/pinned_digests.json``."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from wsadist import detect_tables

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))  # run.py imports its neighbours
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workload", ["detect-mixed", "pairs-long", "dist-files-short"])
def test_region_digest_matches_pin(bench, workload, seed):
    pinned = json.loads(bench.PINNED.read_text())[workload][str(seed)]
    docs = bench.corpora.WORKLOADS[workload](seed).docs
    digest = bench.region_digest([bench.region_tuples(detect_tables(doc)) for doc in docs])
    assert digest == pinned
