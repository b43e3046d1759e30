import ast
import logging
import math
import os
import random
import time
import tracemalloc
from itertools import chain, pairwise
from pathlib import Path

import pytest

from wsadist import (
    CostModel,
    DetectConfig,
    NormalizationMode,
    SizeLimitError,
    TableRegion,
    appendix_model,
    detect_tables,
    kernel_backend,
    levenshtein_ws_agnostic,
    line_whitespace_cost,
    normalize_line,
    row_similarity,
    unit_model,
)
import wsadist.kernel as kernel
import wsadist.table_detect as table_detect
from wsadist.distance import DEFAULT_MAX_CELLS
from wsadist.table_detect import _joined, _runs
from test_cost_model import assert_record

THREE_ROW_TABLE = [
    "Bill Nye\t6 ft 0 inches\t190 lb",
    "Tina Fey\t5 ft 5 inches\t",
    "Mike Fox\t5 ft 4 inches\t130 lb",
]

PROSE = [
    "It was a dark and stormy night.",
    "The quick brown fox jumps over the lazy dog near the riverbank.",
    "She sells seashells.",
    "A very long sentence with many words that keeps going until it stops somewhere.",
    "Short one.",
    "Meanwhile, in another part of town, events unfolded quite differently.",
    "Rain.",
    "The committee deliberated for hours before reaching any consensus.",
    "He left.",
    "Nobody knew why the lights flickered at midnight every single Tuesday.",
]


class TestRowSimilarity:
    def test_identical_lines(self, unit):
        assert row_similarity("aaa 99", "aaa 99", unit) == 1.0

    def test_nothing_in_common(self, unit):
        assert row_similarity("aaa", "", unit) == 0.0

    def test_golden_ratio(self, appendix):
        # d = 4 (golden ws-agnostic distance); D = 9, the heavier line's
        # cost against pure whitespace: 5 letters + 4 digits at 1 each
        assert row_similarity("aaaaA  99  99", "aaaaA", appendix) == pytest.approx(5 / 9)

    def test_blank_vs_blank(self, unit):
        assert row_similarity("", "    ", unit) == 1.0

    def test_whitespace_that_weighs_is_not_similar(self, unit):
        # only lines of D = 0 are fully similar: a tab or U+3000 costs 1
        assert row_similarity("\t", "", unit) == 0.0
        assert row_similarity("\u3000", " ", unit) == 0.0

    def test_clamped_at_zero(self, appendix):
        # replace('(', ')') = 999 exceeds either line's whitespace cost
        assert row_similarity("(", ")", appendix) == 0.0


class TestDetectTables:
    def test_three_row_table(self):
        regions = detect_tables(THREE_ROW_TABLE)
        assert len(regions) == 1
        assert (regions[0].start_line, regions[0].end_line) == (0, 2)
        assert regions[0].score > 0.5

    def test_prose_yields_nothing(self):
        assert detect_tables(PROSE) == []

    def test_empty_document(self):
        assert detect_tables([]) == []

    def test_blank_line_splits_table(self):
        doc = THREE_ROW_TABLE + [""] + THREE_ROW_TABLE
        regions = detect_tables(doc)
        assert [(r.start_line, r.end_line) for r in regions] == [(0, 2), (4, 6)]

    def test_table_inside_prose(self):
        doc = PROSE[:3] + [""] + THREE_ROW_TABLE + [""] + PROSE[3:5]
        regions = detect_tables(doc)
        assert [(r.start_line, r.end_line) for r in regions] == [(4, 6)]

    def test_min_rows_respected(self):
        two_rows = THREE_ROW_TABLE[:2]
        assert detect_tables(two_rows) == []
        assert len(detect_tables(two_rows, DetectConfig(min_rows=2))) == 1

    def test_threshold_one_requires_identical_shapes(self):
        config = DetectConfig(threshold=1.0)
        assert detect_tables(THREE_ROW_TABLE, config) == []
        identical = ["aa 99", "aa 99", "aa 99"]
        assert len(detect_tables(identical, config)) == 1

    def test_custom_mode_and_model(self):
        config = DetectConfig(mode=NormalizationMode.SIMPLE, model=unit_model())
        regions = detect_tables(THREE_ROW_TABLE, config)
        assert [(r.start_line, r.end_line) for r in regions] == [(0, 2)]

    def test_tab_width_changes_layout(self):
        wide = detect_tables(THREE_ROW_TABLE, DetectConfig(tab_width=16))
        assert [(r.start_line, r.end_line) for r in wide] == [(0, 2)]

    def test_pair_over_cell_limit_is_dissimilar(self):
        # 9000 x 9000 cells exceed the distance's default limit; the pair
        # scores 0.0 and the scan goes on past it
        long = ["aaaa 99 " * 1125] * 2
        doc = THREE_ROW_TABLE + [""] + long + THREE_ROW_TABLE
        regions = detect_tables(doc)
        assert [(r.start_line, r.end_line) for r in regions] == [(0, 2), (6, 8)]
        assert detect_tables(long, DetectConfig(threshold=0.0, min_rows=2))[0].score == 0.0

    def test_score_is_mean_of_joined_pairs(self, unit):
        doc = ["aa 99", "aa 99", "aa 9", "", "x"]
        config = DetectConfig(model=unit)
        sims = [row_similarity(doc[i], doc[i + 1], unit) for i in (0, 1)]
        assert detect_tables(doc, config) == [TableRegion(0, 2, sum(sims) / 2)]


class TestDetectConfigValidation:
    def test_threshold_range(self):
        with pytest.raises(ValueError):
            DetectConfig(threshold=1.5)

    def test_min_rows(self):
        with pytest.raises(ValueError):
            DetectConfig(min_rows=1)

    def test_tab_width(self):
        with pytest.raises(ValueError):
            DetectConfig(tab_width=0)
        # str.expandtabs takes a C int
        with pytest.raises(ValueError, match="< 2"):
            DetectConfig(tab_width=1 << 31)
        assert DetectConfig(tab_width=(1 << 31) - 1).tab_width == (1 << 31) - 1

    @pytest.mark.parametrize("field", ["min_rows", "tab_width"])
    def test_integers_only(self, field):
        for value in (2.5, 3.0, "3", None):
            with pytest.raises(TypeError):
                DetectConfig(**{field: value})


class TestRecords:
    def test_region(self):
        region = TableRegion(0, 2, 1.0)
        assert_record(region, "TableRegion(start_line=0, end_line=2, score=1.0)",
                      TableRegion(start_line=0, end_line=2, score=1.0), TableRegion(0, 3, 1.0))
        assert hash(region) == hash(TableRegion(0, 2, 1.0))
        assert {region, TableRegion(0, 2, 1.0)} == {region}
        match region:
            case TableRegion(start, end, score=1.0):
                assert (start, end) == (0, 2)
            case _:
                pytest.fail(repr(region))

    def test_config(self, unit, appendix):
        config = DetectConfig(0.6, 4, NormalizationMode.NONE, unit, 4)
        assert_record(config,
                      "DetectConfig(threshold=0.6, min_rows=4, mode=<NormalizationMode.NONE: "
                      f"'none'>, model={unit!r}, tab_width=4)",
                      DetectConfig(threshold=0.6, min_rows=4, mode=NormalizationMode.NONE,
                                   model=unit_model(), tab_width=4),
                      DetectConfig(0.6, 4, NormalizationMode.NONE, appendix, 4))
        assert DetectConfig().model is appendix
        assert DetectConfig() == DetectConfig(0.5, 3, NormalizationMode.CASED, appendix, 8)
        with pytest.raises(TypeError):
            hash(config)
        match DetectConfig():
            case DetectConfig(threshold, 3, NormalizationMode.CASED, model, tab_width=8):
                assert (threshold, model) == (0.5, appendix)
            case _:
                pytest.fail("no match")


def reference_similarities(lines, config):
    """Each adjacent pair's similarity, one pair at a time through
    ``row_similarity``, as detection scored them before documents were
    encoded once: None for a pair with a blank line, 0.0 for one over the
    cell limit."""
    prepared = [normalize_line(line.expandtabs(config.tab_width), config.mode) for line in lines]
    sims = []
    for above, line in pairwise(prepared):
        sim = None
        if above.strip() and line.strip():
            try:
                sim = row_similarity(above, line, config.model)
            except SizeLimitError:
                sim = 0.0
        sims.append(sim)
    return sims


def reference_regions(lines, config, sims=None):
    """Detection over ``reference_similarities``, which ``sims`` may give
    already: a pair joins at or above the threshold, and each run of joined
    pairs closes at the first one that does not, or at the end."""
    sims = reference_similarities(lines, config) if sims is None else sims
    regions, run = [], []
    for i, sim in enumerate(chain(sims, [None]), 1):
        if sim is not None and sim >= config.threshold:
            run.append(sim)
            continue
        if len(run) + 1 >= config.min_rows:
            regions.append(TableRegion(i - 1 - len(run), i - 1, sum(run) / len(run)))
        run = []
    return regions


PIECES = ["Bill", "Nye", "6", "ft", "190", "lb", "$5", "(x)", "1,2", "aa", "A",
          "Élan", "Жук", "漢字", "٣٤", "５", "a\u0301", "€", " ", "  ", "\t", "   "]

MODELS = [
    unit_model(),
    appendix_model(),
    # asymmetric, with replacements into and out of the whitespace character
    CostModel(indel_default=2, replace_default=3, symmetric=False,
              replace_costs={("a", "9"): 1, ("9", "a"): 4, ("a", " "): 1,
                             (" ", "A"): 5, ("A", "a"): 0, ("$", ","): 2}),
    # lists characters the documents never hold
    CostModel(indel_costs={"\u263a": 5, "a": 2},
              replace_costs={("\u263a", "a"): 1, ("a", "\u263a"): 1, ("9", "\u2603"): 0,
                             ("\u2603", "9"): 0, ("9", "a"): 2, ("a", "9"): 2}),
    # a zero-cost character: lines of only it and spaces weigh nothing
    CostModel(indel_costs={"a": 0, "9": 0}, replace_default=2),
    # path sums beyond int64 take the interpreted kernel
    CostModel(indel_default=1 << 62, replace_default=(1 << 62) - 1, indel_costs={"a": 3}),
]


def random_document(rng):
    template = [rng.choice(PIECES) for _ in range(rng.randint(1, 6))]
    lines = []
    for _ in range(rng.randint(0, 10)):
        kind = rng.random()
        if kind < 0.1:
            lines.append("")
        elif kind < 0.15:
            lines.append(rng.choice([" ", "\t", "   "]))
        elif kind < 0.7:  # a row of a table: the template with a few changes
            row = [rng.choice(PIECES) if rng.random() < 0.25 else p for p in template]
            lines.append(" ".join(row) + " " * rng.randint(0, 3))
        else:
            lines.append("".join(rng.choice(PIECES) for _ in range(rng.randint(1, 12))))
    return lines


# blank lines of other whitespace: str.strip and str.isspace take them all
ODD_BLANKS = ["\x0b", "\u3000", "\x85", "\x0b\u3000\x85"]


def reference_document(rng, n):
    """Documents for the reference differential: every tenth is empty or of
    one line; of the rest, one in three is a ``random_document`` whose blank
    lines are only ``ODD_BLANKS``, one a ``skewed_document``."""
    if n % 10 == 0:
        return random_document(rng)[:n // 10 % 2]
    doc = (random_document, skewed_document)[n % 3 == 2](rng)
    if n % 3 == 1:
        doc = [line if line.strip() else rng.choice(ODD_BLANKS) for line in doc]
    return doc


def assert_matches_reference(doc, model, mode, tab_width, thresholds):
    """``detect_tables`` equals ``reference_regions`` at each threshold, with
    min_rows 2 to 5."""
    sims = reference_similarities(doc, DetectConfig(0.0, 2, mode, model, tab_width))
    for threshold in thresholds:
        for min_rows in range(2, 6):
            config = DetectConfig(threshold, min_rows, mode, model, tab_width)
            assert detect_tables(doc, config) == reference_regions(doc, config, sims), (
                doc, config)


def all_edge_thresholds(doc, model, mode, tab_width):
    """``pair_edges`` of every scored pair of ``doc``, up to 1."""
    lines = [line.expandtabs(tab_width) for line in doc]
    return sorted({edge for pair in scored_pairs(lines, mode, model) for edge in pair_edges(*pair)
                   if edge <= 1.0})


def assert_matches_reference_on_random_documents(seed, count):
    rng = random.Random(seed)
    modes = list(NormalizationMode)
    for n in range(count):
        doc = reference_document(rng, n)
        model, mode = MODELS[n % len(MODELS)], modes[n // len(MODELS) % len(modes)]
        tab_width = rng.choice([1, 4, 8])
        thresholds = [0.0, 0.5, 1.0, rng.random(),
                      *all_edge_thresholds(doc, model, mode, tab_width)]
        assert_matches_reference(doc, model, mode, tab_width, thresholds)


def test_matches_reference_on_random_documents():
    assert_matches_reference_on_random_documents(20261018, 900)


def test_matches_reference_on_interpreted_kernel(fresh_kernel, monkeypatch, caplog):
    monkeypatch.setenv("CC", "/nonexistent/cc")
    with caplog.at_level(logging.WARNING, logger="wsadist"):
        assert kernel_backend() == "interpreted"
        assert_matches_reference_on_random_documents(20261019, 200)


# two 9000-character rows: 81,000,000 cells, past the 2 ** 26-cell limit
WIDE_ROWS = [("Bill 6 ft 190 lb  " * 500)[:9000], ("Tina 5 ft 5 in  " * 600)[:9000]]


def assert_over_limit_pair_inside_a_run(models):
    """The over-limit pair scores 0.0: at threshold 0 the run goes on
    through it, above 0 it splits the table around it."""
    doc = THREE_ROW_TABLE + WIDE_ROWS + THREE_ROW_TABLE
    for model in models:
        assert_matches_reference(doc, model, NormalizationMode.CASED, 8, [0.0, 0.5])
    config = DetectConfig(threshold=0.0, min_rows=5)
    [region] = detect_tables(doc, config)
    assert (region.start_line, region.end_line) == (0, 7)
    assert reference_similarities(doc, config)[3] == 0.0


def test_over_limit_pair_inside_a_run(unit, appendix):
    assert_over_limit_pair_inside_a_run([unit, appendix, MODELS[2]])


def test_over_limit_pair_inside_a_run_on_interpreted_kernel(fresh_kernel, monkeypatch, caplog,
                                                            unit):
    monkeypatch.setenv("CC", "/nonexistent/cc")
    with caplog.at_level(logging.WARNING, logger="wsadist"):
        assert kernel_backend() == "interpreted"
        assert_over_limit_pair_inside_a_run([unit])


def test_pair_at_the_cell_limit_is_scored():
    """8192 x 8192 cells are the limit itself: the pair is scored, as two
    identical lines, which the compiled kernel scores 0 with no DP, beside
    pairs over the limit, which score 0.0."""
    if kernel_backend() != "compiled":
        pytest.skip("no compiled kernel")
    line = ("aa 99 " * 1366)[:8192]
    config = DetectConfig(threshold=0.5, min_rows=2)
    assert detect_tables([line, line], config) == [TableRegion(0, 1, 1.0)]
    doc = [line, line, line + "9", line + "9", "", *WIDE_ROWS]
    assert detect_tables(doc, config) == [TableRegion(0, 1, 1.0)]


def test_weightless_pair_over_cell_limit_is_similar():
    # D = 0 scores 1.0 before the cell limit is looked at
    config = DetectConfig(threshold=0.0, min_rows=2, model=MODELS[4])
    doc = ["aaaa 99 " * 1125] * 2
    assert detect_tables(doc, config) == reference_regions(doc, config) == [TableRegion(0, 1, 1.0)]


def assert_lines_keep_their_breaks(seed, count):
    """Caller lines that hold "\n", "\r", "\r\n", NUL and other control
    characters, as a list and as a generator: each stays one line,
    tab-expanded on its own, and the regions equal ``reference_regions``'s.
    The last documents hold every character up to " " but " " itself, and
    tabs, which expand to spaces: the break that the lines are joined at
    must not be one."""
    rng = random.Random(seed)
    pieces = [*PIECES, "\n", "\r", "\r\n", "\0", "\x01", "a\n\t9", "\r\t"]
    docs = [["".join(rng.choice(pieces) for _ in range(rng.randint(0, 6)))
             for _ in range(rng.randint(0, 8))] for _ in range(count)]
    controls = "".join(map(chr, range(32)))
    docs += [[controls + "aa\t99", "a\t99" + controls, "9\ta\t9"] * 2, ["\n", "\n", ""]]
    for doc in docs:
        for threshold in (0.0, 0.5):
            config = DetectConfig(threshold, 2, rng.choice(list(NormalizationMode)),
                                  rng.choice(MODELS), rng.choice([1, 4, 8]))
            expected = reference_regions(doc, config)
            assert detect_tables(doc, config) == expected, (doc, config)
            assert detect_tables(iter(doc), config) == expected, (doc, config)


def test_lines_keep_their_breaks():
    assert_lines_keep_their_breaks(20261109, 150)


def test_lines_keep_their_breaks_on_interpreted_kernel(fresh_kernel, monkeypatch, caplog):
    monkeypatch.setenv("CC", "/nonexistent/cc")
    with caplog.at_level(logging.WARNING, logger="wsadist"):
        assert kernel_backend() == "interpreted"
        assert_lines_keep_their_breaks(20261110, 50)


def cjk(i):
    return chr(0x4E00 + i)


class TestSymbolLimit:
    """Documents with many distinct symbols: the replacement table has
    one row per character of the document that leads a key of the model's
    replacement costs, plus one shared row, however many symbols the
    document holds."""

    NONE_UNIT = DetectConfig(mode=NormalizationMode.NONE, model=unit_model())

    def test_many_distinct_symbols_stay_in_bounded_memory(self):
        doc = [f"{cjk(i)} 9 aa" for i in range(8000)]
        config = DetectConfig(threshold=0.0, min_rows=2, mode=NormalizationMode.NONE)
        tracemalloc.start()
        try:
            regions = detect_tables(doc, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert regions == reference_regions(doc, config)
        assert (regions[0].start_line, regions[0].end_line) == (0, 7999)
        assert peak < 5 << 20, peak

    def test_overflowing_line_leaves_the_span_before_it_small(self):
        # the span before the wide line must not keep that line's symbols
        doc = ["aa 99"] * 3 + ["".join(cjk(i) for i in range(3000))]
        tracemalloc.start()
        try:
            regions = detect_tables(doc, self.NONE_UNIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert regions == reference_regions(doc, self.NONE_UNIT) == [TableRegion(0, 2, 1.0)]
        assert peak < 5 << 20, peak

    def test_span_boundary_inside_a_table(self):
        rows = [f"{cjk(3 * i)}{cjk(3 * i + 1)} 99  {cjk(3 * i + 2)} 9" for i in range(120)]
        doc = PROSE[:3] + [""] + rows + [""] + PROSE[3:]
        regions = detect_tables(doc, self.NONE_UNIT)
        assert regions == reference_regions(doc, self.NONE_UNIT)
        # 120 rows of 3 distinct symbols each pass 256 symbols inside the table
        assert [(r.start_line, r.end_line) for r in regions] == [(4, 123)]

    def test_pair_beyond_the_limit_alone(self, unit):
        wide = "".join(cjk(i) for i in range(300))
        other = wide[:150] + "".join(cjk(1000 + i) for i in range(150))
        config = DetectConfig(threshold=0.0, min_rows=2, mode=NormalizationMode.NONE, model=unit)
        assert detect_tables([wide, other], config) == [
            TableRegion(0, 1, row_similarity(wide, other, unit))
        ]
        doc = ["aa 99"] * 3 + [wide, other] + ["aa 99", "aa 9"]
        assert detect_tables(doc, config) == reference_regions(doc, config)


def random_model(rng):
    """An asymmetric model over a few characters, zero indel costs likely."""
    def cost():
        return rng.choice([0, 0, 1, 2, 3, 6])

    chars = "aA9 b"
    return CostModel(indel_default=cost(), replace_default=cost(), symmetric=False,
                     indel_costs={c: cost() for c in rng.sample(chars, 3)},
                     replace_costs={(x, y): cost() for x in chars for y in chars
                                    if x != y and rng.random() < 0.4})


def skewed_document(rng):
    """Lines of very different lengths, many of them mostly whitespace."""
    return ["".join(rng.choice("aA9b  ") for _ in range(rng.choice([1, 1, 2, 3, 5, 20, 60])))
            for _ in range(rng.randint(2, 8))]


def detection_scores(lines, mode, model, threshold):
    """``score_document``'s ``(status, heavier, dists)`` on ``lines`` laid out
    as ``_regions`` lays them out: tab-expanded and joined by ``_joined``,
    the document as stream A and from its second line on as stream B,
    blank lines flagged, under detection's cell limit when called."""
    text, brk, pairs = _joined(lines, 8)
    return kernel.score_document(text, len(text), text.find(brk) + 1, brk, pairs, model, True,
                                 threshold, mode, blank=True,
                                 max_cells=table_detect.DEFAULT_MAX_CELLS)[:3]


def pair_triples(lines, mode, model, threshold):
    """``detection_scores`` as one ``(score, d, D)`` per adjacent pair:
    d is None when the pair was not scored or was ruled out at
    ``threshold``, D is the heavier line's weight.  The score is None for a
    pair with a blank line, 1.0 when D = 0, 0.0 when d is None, else
    ``row_similarity``'s value on the normalized lines."""
    status, weights, dists = detection_scores(lines, mode, model, threshold)
    triples = []
    for scored, d, heavier in zip(status, dists, weights):
        d = d if scored == 1 else None
        sim = (None if not scored else 1.0 if heavier == 0 else 0.0 if d is None
               else max(0.0, 1.0 - d / heavier))
        triples.append((sim, d, heavier))
    return triples


def assert_cutoff_keeps_decisions(doc, model, threshold, mode=NormalizationMode.CASED):
    """Detection at ``threshold``, where the kernel rules pairs out,
    against the exact scores of threshold 0: a scored pair whose exact
    score is below ``threshold`` has d None and a score of 0.0, and every
    other pair keeps its d and score.  The regions equal
    ``reference_regions``'s."""
    lines = [line.expandtabs(8) for line in doc]
    exact = pair_triples(lines, mode, model, 0.0)
    cut = pair_triples(lines, mode, model, threshold)
    assert len(cut) == len(exact)
    for (sim, d, heavier), (sim_cut, d_cut, heavier_cut) in zip(exact, cut):
        assert heavier_cut == heavier
        if d is not None and sim < threshold:
            assert (sim_cut, d_cut) == (0.0, None), (doc, model, threshold, d, heavier)
        else:
            assert (sim_cut, d_cut) == (sim, d), (doc, model, threshold)
    config = DetectConfig(threshold, 2, mode, model)
    assert detect_tables(doc, config) == reference_regions(doc, config), (doc, model, threshold)


def scored_pairs(lines, mode, model):
    """The ``(d, D)`` of each pair of ``lines`` scored with D > 0."""
    return [(d, heavier) for sim, d, heavier in pair_triples(lines, mode, model, 0.0)
            if d is not None and heavier > 0]


def pair_edges(d, heavier):
    """Thresholds at which (1 - threshold) * D is an integer for a scored
    pair: its own score, and that of d - 1 and d + 1; and the next double
    above its score, which the pair no longer reaches."""
    edges = [1.0 - t / heavier for t in (d - 1, d, d + 1) if 0 <= t <= heavier]
    return [*edges, math.nextafter(1.0 - min(d, heavier) / heavier, 2.0)]


def edge_thresholds(doc, model, rng):
    """``pair_edges`` of one scored pair of ``doc``."""
    scored = scored_pairs(doc, NormalizationMode.CASED, model)
    return pair_edges(*rng.choice(scored)) if scored else []


def assert_cutoff_matches_exact(seed):
    rng = random.Random(seed)
    for n in range(300):
        model = rng.choice([*MODELS, random_model(rng)])
        doc = [line.expandtabs(8) for line in (random_document, skewed_document)[n % 2](rng)]
        for threshold in [0.0, 1.0, rng.random(), *edge_thresholds(doc, model, rng)]:
            if threshold <= 1.0:
                assert_cutoff_keeps_decisions(doc, model, threshold)


def test_cutoff_on_compiled_kernel_matches_exact_decisions():
    if kernel_backend() != "compiled":
        pytest.skip("no compiled kernel")
    assert_cutoff_matches_exact(20261025)


def test_cutoff_on_interpreted_kernel_matches_exact_decisions(fresh_kernel, monkeypatch, caplog):
    monkeypatch.setenv("CC", "/nonexistent/cc")
    with caplog.at_level(logging.WARNING, logger="wsadist"):
        assert kernel_backend() == "interpreted"
        assert_cutoff_matches_exact(20261026)


# A zero-cost indel: no band, the length bound alone
ZERO_INDEL = CostModel(indel_costs={"a": 0}, replace_default=2)


CUTOFF_CASES = [
    ("a", "a   b", unit_model()),              # n1 = 1: the first row is the last
    ("a  b", "a", unit_model()),               # n2 = 1: no interior column
    ("a" + " " * 30, "a b", unit_model()),     # |n1 - n2| past the band: rows 4-30 have none
    ("99 9" + " " * 20 + "b", "99 9 b", appendix_model()),
    ("aaa b", "aaa c" + " " * 20, unit_model()),  # every band ends before column n2 - 1
    ("aba b", "ab bb", ZERO_INDEL),            # min_indel = 0
    # the same shapes with no shared prefix, which the kernel would skip
    ("a", "Aa  b", unit_model()),
    ("Aa  b", "a", unit_model()),
    ("Aa b" + " " * 30, "a b", unit_model()),
    ("a99 9" + " " * 20 + "b", "99 9 b", appendix_model()),
    ("baa b", "aaa c" + " " * 20, unit_model()),
    ("bba b", "ab bb", ZERO_INDEL),
]


@pytest.mark.parametrize("s1, s2, model", CUTOFF_CASES)
def test_cutoff_at_a_pairs_own_score(s1, s2, model):
    """A pair reaches a threshold equal to its own score, with its exact d,
    and is ruled out just above it."""
    d = levenshtein_ws_agnostic(s1, s2, model)
    heavier = max(line_whitespace_cost(s1, model), line_whitespace_cost(s2, model))
    edge = max(0.0, 1.0 - d / heavier)
    assert 0.0 < edge < 1.0
    mode = NormalizationMode.NONE
    assert pair_triples([s1, s2], mode, model, edge) == [(edge, d, heavier)]
    [(sim, d_cut, _)] = pair_triples([s1, s2], mode, model, math.nextafter(edge, 2.0))
    assert (sim, d_cut) == (0.0, None)
    for threshold in (edge, math.nextafter(edge, 2.0), 0.0, 1.0):
        assert_cutoff_keeps_decisions([s1, s2], model, threshold, mode)


def skipped_prefix(one, two, costs, m):
    """The length of the prefix of two lines, strings or code lists, that
    the kernel skips under the cost block ``costs`` with m replacement rows
    of their own: the prefix the two share, when the dearest indel less the
    cheapest is no more than the cheapest replacement of a symbol by
    another, each column of row m counted; else none."""
    k = len(costs) // (m + 4)
    indel = costs[:k]
    swaps = [costs[(3 + a) * k + b] for a in range(m + 1) for b in range(k) if a == m or a != b]
    if indel and max(indel) - min(indel) > min(swaps):
        return 0
    shared = 0
    for x, y in zip(one, two):
        if x != y:
            break
        shared += 1
    return shared


def lattice_cells(one, two, costs, m):
    """The cells that the kernel computes for a pair run in full, with no
    cutoff: none for identical lines, else the product of the two lengths
    past the skipped prefix."""
    q = skipped_prefix(one, two, costs, m)
    return 0 if one == two else (len(one) - q) * (len(two) - q)


def pair_block(s1, s2, model):
    """The ws-agnostic cost block and m with which ``score_document``
    scores the pair ``s1``, ``s2`` laid out as one text."""
    alphabet = kernel.model_alphabet(model, s1 + s2)
    m = len(alphabet)
    kernel.encode(s1 + s2, alphabet)
    return kernel.alphabet_costs(alphabet, m, model, True), m


def band_cells(s1, s2, model, threshold):
    """The lattice cells that the compiled kernel computes for the pair at
    ``threshold``, by its arithmetic on the lines past their skipped
    prefix: none when the length bound rules the pair out or a line is
    empty; else, each row but the last, the interior cells within the
    band's width of the diagonal and the last column's, and the last row
    in full.  The cutoff reads the whole lines' weights."""
    heavier = max(line_whitespace_cost(s1, model), line_whitespace_cost(s2, model))
    # the least d that rules the pair out, in the double arithmetic of its score
    limit = 1 + max(t for t in range(heavier + 1) if 1.0 - t / heavier >= threshold)
    min_indel = min(model.indel(c) for c in s1 + s2)
    q = skipped_prefix(s1, s2, *pair_block(s1, s2, model))
    s1, s2 = s1[q:], s2[q:]
    n1, n2 = len(s1), len(s2)
    dels, ins = [model.whitespace_cost(c) for c in s1], [model.whitespace_insert_cost(c)
                                                         for c in s2]
    if (sum(dels) - n2 * max(dels, default=0) >= limit
            or sum(ins) - n1 * max(ins, default=0) >= limit):
        return 0
    if not (n1 and n2):
        return 0
    width = (limit - 1) // min_indel if min_indel else n1 + n2
    return n2 + sum(max(min(n2 - 1, i + width) - max(1, i - width) + 1, 0) + 1
                    for i in range(1, n1))


@pytest.mark.parametrize("s1, s2, model", CUTOFF_CASES)
def test_kernel_counts_its_cells(s1, s2, model):
    """The cells that the kernel counts: ``lattice_cells`` at threshold 0,
    on either route, and the band arithmetic of ``band_cells`` at a
    threshold equal to the pair's own score and just above it, on the
    compiled kernel."""
    d = levenshtein_ws_agnostic(s1, s2, model)
    heavier = max(line_whitespace_cost(s1, model), line_whitespace_cost(s2, model))
    edge = 1.0 - d / heavier

    def cells(threshold):
        return kernel.score_document(s1 + s2, len(s1), len(s1), None, 1, model, True,
                                     threshold)[3]

    assert cells(0.0) == lattice_cells(s1, s2, *pair_block(s1, s2, model))
    if kernel_backend() == "compiled":
        for threshold in (edge, math.nextafter(edge, 2.0)):
            assert cells(threshold) == band_cells(s1, s2, model, threshold), threshold


# costs near 2 ** 50: a document of a few hundred characters has a path-sum
# bound past 2 ** 53, where the compiled cutoff is not exact, and within
# int64, so it runs compiled; lines of "9"s and spaces stay light
DEAR = CostModel(indel_default=1 << 50, replace_default=(1 << 50) + 1, indel_costs={"9": 1})
# lines of "a", "9" and spaces weigh nothing under MODELS[4]; three pairs of
# them pass a cell limit of 40
WEIGHTLESS = ["aa 99 aa 9", "a9 a9 a9 a", "9 9 aa 99", "aa 99 aa 9", "", "aa 99", "a9 99",
              "x 9", "aa 99 aa 9  ", "a9 a9 a9 a", "A a"]
CONTRACT_THRESHOLDS = (0.0, 1e-9, 0.3, 0.5, 1.0)


def limited_similarities(lines, config, limit):
    """``reference_similarities`` under a cell limit of ``limit``: a pair
    past it scores 0.0, unless both its lines weigh nothing."""
    prepared = [normalize_line(line.expandtabs(config.tab_width), config.mode) for line in lines]
    sims = reference_similarities(lines, config)
    for j, (above, line) in enumerate(pairwise(prepared)):
        heavier = max(line_whitespace_cost(above, config.model),
                      line_whitespace_cost(line, config.model))
        if sims[j] is not None and len(above) * len(line) > limit and heavier > 0:
            sims[j] = 0.0
    return sims


def assert_minus_one_contract(doc, model, mode, limit=DEFAULT_MAX_CELLS):
    """At each of ``CONTRACT_THRESHOLDS``, a pair's status is 0 exactly when
    a line is blank, and 2 when it is over ``limit`` cells; a pair scored,
    of status 1 or 3, reads status 3 and d -1 exactly when its exact
    similarity is below a threshold above 0, else d >= 0, and one not
    scored reads 0.  ``detect_tables`` equals ``reference_regions`` with
    min_rows 2 to 5."""
    sims = limited_similarities(doc, DetectConfig(0.0, 2, mode, model), limit)
    lines = [line.expandtabs(8) for line in doc]
    for threshold in CONTRACT_THRESHOLDS:
        status, weights, dists = detection_scores(lines, mode, model, threshold)
        for j, sim in enumerate(sims):
            assert (status[j] != 0) == (sim is not None), (doc, j)
            over = len(lines[j]) * len(lines[j + 1]) > limit
            assert (status[j] == 2) == (sim is not None and over), (doc, j)
            if status[j] in (0, 2):
                assert dists[j] == 0, (doc, j)
            else:
                assert (dists[j] == -1) == (status[j] == 3) == (sim < threshold), (
                    doc, model, threshold, j)
                assert dists[j] >= -1, (doc, model, threshold, j)
        for min_rows in range(2, 6):
            config = DetectConfig(threshold, min_rows, mode, model)
            assert detect_tables(doc, config) == reference_regions(doc, config, sims), (
                doc, config)


def assert_minus_one_contract_holds(seed, count, monkeypatch):
    """The contract on random documents under every model of ``MODELS``,
    in each normalization mode; on weightless lines under a cell limit of
    40, where three pairs of them pass it; and on documents under ``DEAR``,
    whose path-sum bound lies in (2 ** 53, 2 ** 63)."""
    rng = random.Random(seed)
    modes = list(NormalizationMode)
    for n in range(count):
        doc = (random_document, skewed_document)[n % 2](rng)
        assert_minus_one_contract(doc, MODELS[n % len(MODELS)], modes[n % len(modes)])
    dear_docs = [random_document(rng) + ["9 99", "99 9"] for _ in range(10)]
    for doc in dear_docs:
        bound = max(len("".join(doc)), 1) * ((1 << 50) + 1)
        assert 1 << 53 < bound <= (1 << 63) - 1
        assert_minus_one_contract(doc, DEAR, NormalizationMode.NONE)
    monkeypatch.setattr(table_detect, "DEFAULT_MAX_CELLS", 40)
    for model in (MODELS[4], unit_model()):
        assert_minus_one_contract(WEIGHTLESS, model, NormalizationMode.NONE, limit=40)
    # the weightless pairs past the limit join above threshold 0 too
    config = DetectConfig(0.5, 2, NormalizationMode.NONE, MODELS[4])
    assert detect_tables(WEIGHTLESS, config)[0] == TableRegion(0, 3, 1.0)


def test_minus_one_contract_on_compiled_kernel(monkeypatch):
    if kernel_backend() != "compiled":
        pytest.skip("no compiled kernel")
    assert_minus_one_contract_holds(20261201, 240, monkeypatch)


def test_minus_one_contract_on_a_kernel_that_evaluates_doubles_wider(fresh_kernel, monkeypatch,
                                                                     caplog):
    """A build with x87 arithmetic (FLT_EVAL_METHOD 2, gcc's -mfpmath=387 on
    x86-64) says that its cutoff is not exact and gives none; ``dp_pairs``
    rules the pairs out over its exact d."""
    monkeypatch.setenv("CC", f"{os.environ.get('CC') or 'cc'} -mfpmath=387")
    with caplog.at_level(logging.WARNING, logger="wsadist"):
        if kernel_backend() != "compiled":
            pytest.skip("no build with -mfpmath=387")
    if kernel._compiled_library().exact_cutoff:
        pytest.skip("-mfpmath=387 left doubles evaluated as double")
    assert_minus_one_contract_holds(20261202, 60, monkeypatch)


def test_minus_one_contract_on_interpreted_kernel(fresh_kernel, monkeypatch, caplog):
    monkeypatch.setenv("CC", "/nonexistent/cc")
    with caplog.at_level(logging.WARNING, logger="wsadist"):
        assert kernel_backend() == "interpreted"
        assert_minus_one_contract_holds(20261203, 60, monkeypatch)


def test_min_rows_past_the_document_finds_nothing():
    """A min_rows longer than any run, up to past the regular expression's
    repeat limit, finds no region."""
    doc = ["aa 99"] * 5
    assert detect_tables(doc, DetectConfig(min_rows=5)) == [TableRegion(0, 4, 1.0)]
    for min_rows in (6, 1 << 40):
        assert detect_tables(doc, DetectConfig(min_rows=min_rows)) == []


def test_run_just_short_of_min_rows_in_a_longer_document():
    """A run one pair short of min_rows before one that reaches it: only
    the second is a region."""
    doc = ["aa 99"] * 4 + [""] + ["aa 99"] * 5
    assert detect_tables(doc, DetectConfig(min_rows=5)) == [TableRegion(5, 9, 1.0)]
    assert detect_tables(doc, DetectConfig(min_rows=6)) == []


def test_runs_too_short_are_counted_once():
    """Long runs one byte short of the span, in joins longer than it, give
    nothing, in linear time: counting each again from every one of its
    bytes took over five seconds here."""
    joins = (b"\x01" * 59_999 + b"\x00") * 4
    started = time.perf_counter()
    assert list(_runs(joins, 60_000)) == []
    assert time.perf_counter() - started < 1.0
    assert list(_runs(joins, 59_999)) == [(n * 60_000, n * 60_000 + 59_999) for n in range(4)]
    assert list(_runs(b"\x00\x01\x01\x00\x01", 1)) == [(1, 3), (4, 5)]


def test_byte_conversions_name_their_byte_order():
    """``int.from_bytes`` and ``int.to_bytes`` take no default byte order
    before Python 3.11, and the package supports 3.10."""
    package = Path(table_detect.__file__).parent
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("from_bytes", "to_bytes")):
                named = len(node.args) >= 2 or any(k.arg == "byteorder" for k in node.keywords)
                assert named, f"{path.name}:{node.lineno}"
