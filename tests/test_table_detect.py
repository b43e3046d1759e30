import logging
import math
import random
import tracemalloc
from itertools import chain, pairwise

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
from wsadist.table_detect import _pair_scores
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


def pair_triples(lines, mode, model, threshold):
    """``_pair_scores``'s lists as one ``(score, d, D)`` per adjacent pair:
    d is None when the pair was not scored or was ruled out at
    ``threshold``, D is the heavier line's weight."""
    _, want, weights, dists, sims = _pair_scores(lines, mode, model, threshold)
    return [(sim, d if wanted and d >= 0 else None, max(w1, w2))
            for sim, wanted, d, w1, w2 in zip(sims, want, dists, weights, weights[1:])]


def assert_cutoff_keeps_decisions(doc, model, threshold, mode=NormalizationMode.CASED):
    """Detection at ``threshold``, where the kernel may rule pairs out,
    against the exact scores of threshold 0: each pair keeps its d and
    score, or has d None, a score of 0.0 and an exact score below
    ``threshold``.  The regions equal ``reference_regions``'s."""
    lines = [line.expandtabs(8) for line in doc]
    exact = pair_triples(lines, mode, model, 0.0)
    cut = pair_triples(lines, mode, model, threshold)
    assert len(cut) == len(exact)
    for (sim, d, heavier), (sim_cut, d_cut, heavier_cut) in zip(exact, cut):
        assert heavier_cut == heavier
        if d_cut is None and d is not None:
            assert sim < threshold and sim_cut == 0.0, (doc, model, threshold, d, heavier)
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


@pytest.mark.parametrize("s1, s2, model", [
    ("a", "a   b", unit_model()),              # n1 = 1: the first row is the last
    ("a  b", "a", unit_model()),               # n2 = 1: no interior column
    ("a" + " " * 30, "a b", unit_model()),     # |n1 - n2| past the band: rows 4-30 have none
    ("99 9" + " " * 20 + "b", "99 9 b", appendix_model()),
    ("aaa b", "aaa c" + " " * 20, unit_model()),  # every band ends before column n2 - 1
    ("aba b", "ab bb", ZERO_INDEL),            # min_indel = 0
])
def test_cutoff_at_a_pairs_own_score(s1, s2, model):
    """A pair reaches a threshold equal to its own score, with its exact d,
    and is ruled out (by the compiled kernel) just above it."""
    d = levenshtein_ws_agnostic(s1, s2, model)
    heavier = max(line_whitespace_cost(s1, model), line_whitespace_cost(s2, model))
    edge = max(0.0, 1.0 - d / heavier)
    assert 0.0 < edge < 1.0
    mode = NormalizationMode.NONE
    assert pair_triples([s1, s2], mode, model, edge) == [(edge, d, heavier)]
    [(sim, d_cut, _)] = pair_triples([s1, s2], mode, model, math.nextafter(edge, 2.0))
    if kernel_backend() == "compiled":
        assert (sim, d_cut) == (0.0, None)
    for threshold in (edge, math.nextafter(edge, 2.0), 0.0, 1.0):
        assert_cutoff_keeps_decisions([s1, s2], model, threshold, mode)
