"""Spans around the calls between wsadist's modules, recorded from outside.

The program has no tracing of its own.  While a ``Tracer`` is installed,
every name a ``wsadist.*`` module holds for one of the layer entry
points below (a module global, or a value in a module-level dict such as
the CLI's mode table) is swapped for a wrapper that records a span, and
the benchmark calls the same entry points through wrapped references.
``uninstall`` puts the original objects back.

A span is ``[name, start, end, parent, op, attr]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``op`` the benchmark
operation it belongs to, and ``attr`` a figure taken from the call
(characters normalized, the two lengths of a distance, a similarity).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

from wsadist.cli import main as cli_main
from wsadist.cost_model import appendix_model, load_model_file, unit_model
from wsadist.distance import levenshtein_standard, levenshtein_ws_agnostic
from wsadist.normalizer import normalize_line
from wsadist.table_detect import detect_tables, row_similarity


def _lengths(args, result):
    return len(args[0]), len(args[1])


def _first_len(args, result):
    return len(args[0])


def _result(args, result):
    return result


# entry point -> (layer span name, figure recorded on the span)
LAYER_ENTRY_POINTS = {
    cli_main: ("cli", None),
    appendix_model: ("cost_model", None),
    unit_model: ("cost_model", None),
    load_model_file: ("cost_model", None),
    normalize_line: ("normalizer", _first_len),
    detect_tables: ("table_detect", None),
    row_similarity: ("table_detect.similarity", _result),
    levenshtein_ws_agnostic: ("distance", _lengths),
    levenshtein_standard: ("distance", _lengths),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._wrappers: dict = {}
        self._patched: list = []

    def wrap(self, fn):
        """The traced stand-in for layer entry point ``fn``."""
        if fn not in self._wrappers:
            name, figure = LAYER_ENTRY_POINTS[fn]
            spans, stack = self.spans, self._stack

            def traced(*args, **kwargs):
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = perf_counter()
                    stack.pop()
                if figure is not None:
                    rec[5] = figure(args, result)
                return result

            self._wrappers[fn] = traced
        return self._wrappers[fn]

    def install(self):
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("wsadist.") or module is None:
                continue
            space = vars(module)
            for key, value in list(space.items()):
                if isinstance(value, dict):
                    self._patch_dict(value)
                elif _is_entry_point(value):
                    self._patched.append((space, key, value))
                    space[key] = self.wrap(value)

    def _patch_dict(self, table):
        for key, value in list(table.items()):
            if _is_entry_point(value):
                self._patched.append((table, key, value))
                table[key] = self.wrap(value)

    def uninstall(self):
        while self._patched:
            container, key, value = self._patched.pop()
            container[key] = value

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _is_entry_point(value):
    try:
        return value in LAYER_ENTRY_POINTS
    except TypeError:  # unhashable
        return False


def layer_figures(spans, first, ops_loading_a_model, threshold):
    """Per-layer figures for the spans from index ``first`` on.

    Self time is a span's duration minus the time its child spans cover.
    The program runs on one thread, so the children of a span run one
    after another and never overlap: the covered time is their sum.
    """
    child = defaultdict(float)
    for rec in spans[first:]:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    self_s = defaultdict(float)
    busy = defaultdict(float)
    count = defaultdict(int)
    loads = []
    chars = cells = empty = above = 0
    for idx in range(first, len(spans)):
        name, start, end, _, _, attr = spans[idx]
        dur = end - start
        self_s[name] += dur - child[idx]
        busy[name] += dur
        count[name] += 1
        if name == "normalizer":
            chars += attr
        elif name == "distance":
            cells += attr[0] * attr[1]
            empty += attr[0] == 0 or attr[1] == 0
        elif name == "table_detect.similarity":
            above += attr >= threshold
        elif name == "cost_model":
            loads.append(dur)
    pairs = count["table_detect.similarity"]
    return {
        "cli.self_s": self_s["cli"],
        "cost_model.load_s": statistics.median(loads) if loads else 0.0,
        "cost_model.loads": len(loads) / ops_loading_a_model,
        "normalizer.self_s": self_s["normalizer"],
        "normalizer.chars_per_s": chars / busy["normalizer"] if chars else 0.0,
        "table_detect.self_s": self_s["table_detect"],
        "table_detect.similarity_self_s": self_s["table_detect.similarity"],
        "table_detect.pairs": pairs,
        "table_detect.pairs_above_threshold_frac": above / pairs if pairs else 0.0,
        "distance.calls": count["distance"],
        "distance.cells": cells,
        "distance.self_s": self_s["distance"],
        "distance.cells_per_s": cells / busy["distance"] if cells else 0.0,
        "distance.empty_side_calls": empty,
    }
