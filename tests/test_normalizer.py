import pytest
from hypothesis import given, strategies as st

from wsadist import NormalizationMode, normalize_line, normalize_lines
from wsadist.normalizer import _TABLES, _map_char_cased, _map_char_simple

SIMPLE = NormalizationMode.SIMPLE
CASED = NormalizationMode.CASED
NONE = NormalizationMode.NONE

lines = st.text(
    alphabet=st.characters(exclude_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
    max_size=40,
)


@pytest.mark.parametrize(
    "raw, mode, expected",
    [
        ("Bill Nye", SIMPLE, "aaaa aaa"),
        ("Value1", CASED, "Aaaaa9"),
        ("$11,121", CASED, "$99,999"),
        ("", CASED, ""),
        ("234,012.50", CASED, "999,999.99"),
        ("Bill Nye", CASED, "Aaaa Aaa"),
        ("a1B2", SIMPLE, "a9a9"),
        ("(x) [y]\t$5", CASED, "(a) [a]\t$9"),
        ("anything at ALL 42", NONE, "anything at ALL 42"),
    ],
)
def test_examples(raw, mode, expected):
    assert normalize_line(raw, mode) == expected


@given(lines, st.sampled_from(list(NormalizationMode)))
def test_length_preserved(s, mode):
    assert len(normalize_line(s, mode)) == len(s)


@given(lines, st.sampled_from(list(NormalizationMode)))
def test_idempotent(s, mode):
    once = normalize_line(s, mode)
    assert normalize_line(once, mode) == once


@given(lines, st.sampled_from(list(NormalizationMode)))
def test_whitespace_positions_fixed(s, mode):
    out = normalize_line(s, mode)
    for i, c in enumerate(s):
        if c.isspace():
            assert out[i] == c


@given(lines)
def test_none_is_identity(s):
    assert normalize_line(s, NONE) == s


def test_control_characters_kept_verbatim():
    assert normalize_line("a\x01b\x7f", CASED) == "a\x01a\x7f"


def test_non_ascii_letters_and_digits():
    assert normalize_line("Élan №", CASED) == "Aaaa №"
    assert normalize_line("٣٤", SIMPLE) == "99"


def test_normalize_lines_preserves_order_and_count():
    assert normalize_lines(["Ab 1", "", "c"], CASED) == ["Aa 9", "", "a"]


# é, Ж, 漢, Arabic-Indic three, fullwidth five, a combining acute accent,
# a lone surrogate and an astral letter (mathematical bold capital A)
SAMPLE = "Ab 1\t\u00e9\u0416\u6f22\u0663\uff15e\u0301\ud800\U0001d400$,()\x00\x7f"


@pytest.mark.parametrize("mode, map_char", [
    (SIMPLE, _map_char_simple), (CASED, _map_char_cased), (NONE, lambda c: c),
])
def test_translate_equals_per_character_map(mode, map_char):
    assert normalize_line(SAMPLE, mode) == "".join(map_char(c) for c in SAMPLE)


def test_tables_do_not_grow():
    for mode in (SIMPLE, CASED):
        normalize_line(SAMPLE + "".join(map(chr, range(0x400, 0x4400))), mode)
    assert [len(table) for table in _TABLES.values()] == [128, 128]
