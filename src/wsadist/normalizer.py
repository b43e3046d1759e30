"""Shape normalization: map text to character classes so that distances
compare layout rather than content."""

from enum import Enum


class NormalizationMode(Enum):
    SIMPLE = "simple"   # every letter -> 'a', every digit -> '9'
    CASED = "cased"     # lowercase -> 'a', uppercase -> 'A', digit -> '9'
    NONE = "none"       # identity


def _map_char_simple(c: str) -> str:
    if c.isalpha():
        return "a"
    if c.isdigit():
        return "9"
    return c


def _map_char_cased(c: str) -> str:
    if c.isalpha():
        return "A" if c.isupper() else "a"
    if c.isdigit():
        return "9"
    return c


class _Table(dict):
    """A ``str.translate`` table for one mode's character map.  ASCII is
    held; any other code point is mapped on lookup and not stored, so the
    table keeps its 128 entries whatever text it translates."""

    def __init__(self, map_char):
        super().__init__((point, map_char(chr(point))) for point in range(128))
        self._map_char = map_char

    def __missing__(self, point: int) -> str:
        return self._map_char(chr(point))


_TABLES = {
    NormalizationMode.SIMPLE: _Table(_map_char_simple),
    NormalizationMode.CASED: _Table(_map_char_cased),
}


def normalize_line(line: str, mode: NormalizationMode = NormalizationMode.CASED) -> str:
    """Normalize one line of text.

    Letters become 'a' (or 'A' for uppercase in CASED mode), digits
    become '9', everything else, including all whitespace and line
    breaks, is kept as-is.  Length is preserved.  Each character maps on
    its own, so a whole text normalizes as its lines do.
    """
    if mode is NormalizationMode.NONE:
        return line
    return line.translate(_TABLES[mode])


def normalize_lines(lines, mode: NormalizationMode = NormalizationMode.CASED):
    """Normalize a sequence of lines, preserving order and count."""
    return [normalize_line(line, mode) for line in lines]
