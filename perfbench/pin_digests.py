#!/usr/bin/env python3
"""Recompute perfbench/pinned_digests.json: the library `detect` region
digest of every workload for seeds 0-99.

    python3 perfbench/pin_digests.py

Run it only when corpus.py changes, from a commit whose detection output
is trusted; the digests then catch any later change to that output.
"""

import json
import sys

import run

SEEDS = range(100)


def main():
    sys.path.insert(0, str(run.SRC))
    from wsadist import detect_tables

    pins = {}
    for workload, make in run.corpora.WORKLOADS.items():
        pins[workload] = {
            str(seed): run.region_digest(
                [run.region_tuples(detect_tables(doc)) for doc in make(seed).docs])
            for seed in SEEDS
        }
        print(f"{workload}: {len(SEEDS)} seeds", file=sys.stderr)
    run.PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
