"""Seeded inputs for the perfbench workloads.

The same seed always gives the same text.  A different seed changes the
text but not the amount of work: line counts are fixed, and each corpus
is redrawn (from seeds derived from the run's seed) until the DP cells
its legs cost fall within a narrow window around the median of a fixed
reference sample.  Without that, a long line landing next to another
long line in one seed and not in the next would move the figures more
than most code changes do.

Nothing here imports the program under test: it only receives the text.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass

TAB_WIDTH = 8  # the CLI's and DetectConfig's default
CELL_TOLERANCE = 0.02  # allowed distance of a corpus's cell counts from the reference median
REFERENCE_DRAWS = 31

LOWER = "abcdefghijklmnopqrstuvwxyz"
CELL_KINDS = ("int", "money", "neg", "year", "pct", "date", "code")


@dataclass
class Corpus:
    docs: list[list[str]]              # documents for `detect`, library and CLI
    pairs: list[tuple[str, str]]       # normalized-shape pairs for the distance legs
    files: tuple[list[str], list[str]]  # two versions of a file for `dist --files`
    oracle_pairs: list[tuple[str, str]]  # short sub-pairs checked against the oracles
    probe: list[str] | None = None     # document with one adjacent pair over max_cells


def shape(line: str) -> str:
    """Cased shape of a line: letters to a/A, digits to 9, rest kept."""
    return "".join(
        ("A" if c.isupper() else "a") if c.isalpha() else "9" if c.isdigit() else c
        for c in line
    )


def detect_cells(doc: list[str]) -> int:
    """DP cells `detect` computes: adjacent pairs inside blank-free blocks."""
    lens = [len(line.expandtabs(TAB_WIDTH)) if line.strip() else 0 for line in doc]
    return sum(a * b for a, b in zip(lens, lens[1:]))


def dist_cells(left: list[str], right: list[str]) -> int:
    """DP cells `dist --files` computes, line k against line k."""
    return sum(
        len(a.expandtabs(TAB_WIDTH)) * len(b.expandtabs(TAB_WIDTH))
        for a, b in zip(left, right)
    )


def pair_cells(pairs) -> int:
    return sum(len(a) * len(b) for a, b in pairs)


# --- text pieces -------------------------------------------------------

def _word(rng, lo=2, hi=9):
    return "".join(rng.choice(LOWER) for _ in range(rng.randint(lo, hi)))


def _token(rng):
    r = rng.random()
    if r < 0.78:
        return _word(rng)
    if r < 0.86:
        return _word(rng).capitalize()
    if r < 0.91:
        return str(rng.randint(1, 10 ** rng.randint(1, 4)))
    if r < 0.97:
        return _word(rng) + rng.choice(",.;")
    return f"({_word(rng)})"


def _words_to(rng, target, token=_token):
    out = token(rng)
    while True:
        nxt = token(rng)
        if len(out) + 1 + len(nxt) > target:
            return out
        out += " " + nxt


def _cell(rng, kind):
    if kind == "label":
        return " ".join(_word(rng) for _ in range(rng.randint(1, 3))).capitalize()
    if kind == "int":
        return str(rng.randint(0, 10 ** rng.randint(1, 6)))
    if kind == "money":
        return f"${rng.randint(0, 10 ** rng.randint(2, 7)):,}.{rng.randint(0, 99):02d}"
    if kind == "neg":
        return f"({rng.randint(1, 10 ** rng.randint(2, 6)):,})"
    if kind == "year":
        return str(rng.randint(1990, 2030))
    if kind == "pct":
        return f"{rng.uniform(0, 100):.1f}%"
    if kind == "date":
        return f"{rng.randint(1990, 2030)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
    return f"{_word(rng, 2, 3).upper()}-{rng.randint(1, 999)}"


def _table(rng, nrows, long_row=False):
    """A table with a header, ragged right: about 30% of data rows leave
    the rightmost cell empty.  Columns are separated by tabs, by padding
    spaces, or by a per-row mix of both."""
    ncols = rng.randint(3, 6)
    kinds = [rng.choice(CELL_KINDS) for _ in range(ncols - 1)]
    rows = [[_word(rng).capitalize() for _ in range(ncols)]]
    for _ in range(nrows - 1):
        row = [_cell(rng, k) for k in ["label"] + kinds]
        if rng.random() < 0.3:
            row[-1] = ""
        rows.append(row)
    if long_row:
        rows[rng.randrange(1, nrows)].append(_words_to(rng, rng.randint(220, 420)))
    widths = [
        max(len(r[c]) for r in rows if c < len(r)) + rng.randint(2, 4)
        for c in range(max(len(r) for r in rows))
    ]
    sep = rng.choice(("tab", "space", "mixed"))
    lines = []
    for row in rows:
        if sep == "tab" or (sep == "mixed" and rng.random() < 0.5):
            line = "\t".join(row)
        else:
            line = "".join(cell.ljust(w) for cell, w in zip(row, widths))
        if rng.random() < 0.5:
            line = line.rstrip()
        lines.append(line)
    return lines


def _prose(rng, nlines, long_line=False):
    """A paragraph wrapped ragged at 40-100 columns, last line short;
    with ``long_line`` one line is an unwrapped 300-700 char run."""
    long_at = rng.randrange(nlines) if long_line else -1
    lines = []
    for k in range(nlines):
        if k == long_at:
            target = rng.randint(300, 700)
        elif k == nlines - 1:
            target = rng.randint(20, 60)
        else:
            target = rng.randint(40, 100)
        lines.append(_words_to(rng, target))
    return lines


def _document(rng, blocks, long_lines=True):
    """Blocks of prose and tables separated by blank lines.  With
    ``long_lines`` one prose line and one table row run to several
    hundred characters."""
    blocks = list(blocks)
    rng.shuffle(blocks)
    kinds = [kind for kind, _ in blocks]
    long_prose = rng.choice([k for k, kind in enumerate(kinds) if kind == "prose"])
    long_table = rng.choice([k for k, kind in enumerate(kinds) if kind == "table"])
    doc = []
    for k, (kind, n) in enumerate(blocks):
        if doc:
            doc.append("")
        if kind == "prose":
            doc += _prose(rng, n, long_lines and k == long_prose)
        else:
            doc += _table(rng, n, long_lines and k == long_table)
    return doc


# --- short lines and edits ---------------------------------------------

def _short_line(rng):
    """One line of at most 40 columns after tab expansion."""
    r = rng.random()
    if r < 0.15:
        return ""
    if r < 0.40:
        line = _words_to(rng, rng.randint(8, 40))
    elif r < 0.52:
        line = "- " + _words_to(rng, rng.randint(6, 38))
    elif r < 0.62:
        line = f"{rng.randint(1, 99)}. " + _words_to(rng, rng.randint(6, 36))
    elif r < 0.74:
        key = _word(rng).capitalize() + ":"
        line = key.ljust(rng.randint(len(key) + 1, 16)) + _cell(rng, rng.choice(CELL_KINDS))
    elif r < 0.86:
        line = "  ".join([_word(rng, 2, 6), _cell(rng, "int"), _cell(rng, "pct")])
    elif r < 0.94:
        line = f"{_word(rng, 1, 6)} = {_word(rng, 2, 8)}({rng.randint(0, 99)}, {_word(rng, 1, 4)})"
    else:
        line = "\t" + _words_to(rng, rng.randint(6, 32))
    if rng.random() < 0.1:
        line += " " * rng.randint(1, 3)
    return line[:40]


def _edit(rng, line, new_line):
    """A second version of ``line``: mostly unchanged, sometimes with
    only trailing spaces changed, a word or number edited, blanked,
    or replaced by ``new_line(rng)``."""
    r = rng.random()
    if r < 0.5:
        return line
    if r < 0.6:
        stripped = line.rstrip(" ")
        return stripped if stripped != line else line + " " * rng.randint(1, 4)
    if r < 0.8 and line.strip():
        tokens = line.split(" ")
        k = rng.randrange(len(tokens))
        tok = tokens[k]
        if any(c.isdigit() for c in tok):
            tokens[k] = "".join(rng.choice("0123456789") if c.isdigit() else c for c in tok)
        elif rng.random() < 0.5:
            tokens[k] = _word(rng, max(1, len(tok) - 2), len(tok) + 2)
        else:
            tokens.insert(k, _word(rng))
        return " ".join(tokens)
    if r < 0.85:
        return "" if line.strip() else new_line(rng)
    return new_line(rng)


# --- controlled draws --------------------------------------------------

def _controlled(make, measures, key):
    """Draw ``make(rng)`` from derived seeds until every measure lands
    within CELL_TOLERANCE of its median over a fixed reference sample."""
    reference = [make(random.Random(f"{key}:reference:{k}")) for k in range(REFERENCE_DRAWS)]
    targets = [statistics.median(m(x) for x in reference) for m in measures]
    for attempt in range(10_000):
        x = make(random.Random(f"{key}:{attempt}"))
        if all(abs(m(x) / t - 1) <= CELL_TOLERANCE for m, t in zip(measures, targets)):
            return x
    raise RuntimeError(f"no draw for {key} within {CELL_TOLERANCE:.0%} of the reference")


def _oracle_pairs(rng, pairs, count=12):
    """Short pieces cut from ``pairs``, some with trailing spaces, small
    enough for the pure-Python oracles."""
    out = []
    for _ in range(count):
        a, b = rng.choice(pairs)

        def cut(s):
            n = rng.randint(0, min(14, len(s)))
            start = rng.randint(0, len(s) - n)
            return s[start:start + n] + " " * rng.choice((0, 0, 1, 3))

        out.append((cut(a), cut(b)))
    return out


def _adjacent_shapes(doc):
    shapes = [shape(line.expandtabs(TAB_WIDTH)) for line in doc]
    return [(a, b) for a, b in zip(shapes, shapes[1:]) if a.strip() and b.strip()]


DOC_BLOCKS = (("prose", 6), ("table", 12), ("prose", 5), ("table", 9),
              ("prose", 7), ("table", 14), ("prose", 4))
MINI_BLOCKS = (("prose", 6), ("table", 10), ("prose", 5), ("table", 12))
DETECT_DOCS = 3


def detect_mixed(seed: int) -> Corpus:
    """Three documents mixing prose and ragged-right tables, each with
    two lines of several hundred characters; the distance and dist legs
    run on a smaller document of the same kind and an edited copy."""
    def make_docs(rng):
        return [_document(rng, DOC_BLOCKS) for _ in range(DETECT_DOCS)]

    docs = _controlled(make_docs, [lambda d: sum(map(detect_cells, d))], f"detect-mixed:{seed}:docs")

    def make_mini(rng):
        doc = _document(rng, MINI_BLOCKS, long_lines=False)
        return doc, [_edit(rng, line, lambda r: _words_to(r, r.randint(30, 90))) for line in doc]

    mini, edited = _controlled(
        make_mini,
        [lambda m: pair_cells(_adjacent_shapes(m[0])), lambda m: dist_cells(*m)],
        f"detect-mixed:{seed}:mini",
    )
    rng = random.Random(f"detect-mixed:{seed}:rest")
    pairs = _adjacent_shapes(mini)
    probe = _table(rng, 4) + [""] + [_words_to(rng, 9000) for _ in range(2)] + [""] + _table(rng, 4)
    return Corpus(docs, pairs, (mini, edited), _oracle_pairs(rng, pairs), probe)


LONG_PAIR_LENGTHS = ((2048, 256), (256, 512), (768, 320), (384, 384))


def _long_shape(rng, n):
    """A normalized table-row shape of exactly ``n`` characters."""
    kinds = ["label"] + [rng.choice(CELL_KINDS) for _ in range(rng.randint(2, 5))]
    out = ""
    while len(out) < n:
        for kind in kinds:
            out += _cell(rng, kind) + " " * rng.randint(1, 6)
    return shape(out[:n])


def pairs_long(seed: int) -> Corpus:
    """Four shape pairs of fixed lengths, 256-2048 characters a side, so
    every seed costs the same number of cells.  The detect and dist legs
    run on the smallest pair only."""
    rng = random.Random(f"pairs-long:{seed}")
    pairs = [(_long_shape(rng, n1), _long_shape(rng, n2)) for n1, n2 in LONG_PAIR_LENGTHS]
    small = min(pairs, key=lambda p: len(p[0]) * len(p[1]))
    return Corpus([list(small)], pairs, ([small[0]], [small[1]]), _oracle_pairs(rng, pairs))


SHORT_LINES = 600
SHORT_EXTRA = 12   # lines only the second version has: compared against ""
SHORT_PAIRS = 100  # leading line pairs that also run through the distance legs


def dist_files_short(seed: int) -> Corpus:
    """Two versions of a file of 600 short lines; the second adds lines
    at the end, so the last comparisons have an empty side."""
    def make(rng):
        left = [_short_line(rng) for _ in range(SHORT_LINES)]
        right = [_edit(rng, line, _short_line)[:40] for line in left]
        right += [_short_line(rng) for _ in range(SHORT_EXTRA)]
        return left, right

    def head_pairs(files):
        return [(shape(a.expandtabs(TAB_WIDTH)), shape(b.expandtabs(TAB_WIDTH)))
                for a, b in zip(*files)][:SHORT_PAIRS]

    files = _controlled(
        make,
        [lambda f: dist_cells(*f), lambda f: detect_cells(f[0]), lambda f: pair_cells(head_pairs(f))],
        f"dist-files-short:{seed}",
    )
    rng = random.Random(f"dist-files-short:{seed}:rest")
    pairs = head_pairs(files)
    return Corpus([files[0]], pairs, files, _oracle_pairs(rng, [p for p in pairs if p[0] and p[1]]))


WORKLOADS = {
    "detect-mixed": detect_mixed,
    "pairs-long": pairs_long,
    "dist-files-short": dist_files_short,
}
