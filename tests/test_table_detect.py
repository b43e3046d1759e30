import pytest

from wsadist import (
    DetectConfig,
    NormalizationMode,
    TableRegion,
    detect_tables,
    row_similarity,
    unit_model,
)

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
