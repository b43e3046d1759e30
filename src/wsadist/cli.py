r"""Command-line surface: ``wsadist dist|normalize|detect``.

Exit codes: 0 success, 2 bad flags or bad cost-model document,
3 unreadable input, 4 a distance exceeds its size limit (``dist``),
5 standard output could not be written.

A line of input ends at "\n", which the last line may lack; one "\r"
before it is dropped.  No other character breaks a line.
"""

import argparse
import json
import os
import sys
from functools import cache
from itertools import islice, zip_longest

from .cost_model import CostModel, ModelError, appendix_model, load_model_file, unit_model
from .distance import _DISPATCH, Algorithm, SizeLimitError, _paired_distances
from .normalizer import NormalizationMode, normalize_line
from .table_detect import DetectConfig, detect_tables

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_SIZE = 4
EXIT_OUTPUT = 5


def _resolve_model(spec: str) -> CostModel:
    if spec == "unit":
        return unit_model()
    if spec == "appendix-a":
        return appendix_model()
    return load_model_file(spec)


def _read_text(operand: str) -> str:
    if operand == "-":
        # strict UTF-8 with "\r" kept, as a file is read; bare text streams as text
        stdin = sys.stdin
        if stdin is None:  # Python's stand-in for a closed descriptor 0
            raise OSError("standard input is closed")
        return stdin.buffer.read().decode() if hasattr(stdin, "buffer") else stdin.read()
    # newline="": "\r" reaches split_lines as it is in the file
    with open(operand, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def fold_lines(text: str) -> tuple[str, int]:
    r"""``text`` with every line ending at a bare "\n", and its number of
    lines, by the rule of ``split_lines``: the one "\r" that ends a line
    is dropped, before its "\n" or at the end of the text."""
    count = text.count("\n") + (text[-1:] not in ("", "\n"))
    if "\r" in text:
        text = text.replace("\r\n", "\n").removesuffix("\r")
    return text, count


def split_lines(text: str) -> list[str]:
    r"""The lines of ``text``: each ends at "\n", which the last may lack,
    and one "\r" at its end is dropped.  Unlike ``str.splitlines``, no
    other character ends a line."""
    text, count = fold_lines(text)
    lines = text.split("\n")
    del lines[count:]  # the empty piece after a last "\n"
    return lines


def tab_width(text: str) -> int:
    width = int(text)
    if not 1 <= width < 1 << 31:  # str.expandtabs takes a C int
        raise argparse.ArgumentTypeError(f"tab width must be >= 1 and < 2**31, got {width}")
    return width


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="wsadist",
        description="Trailing-whitespace-agnostic string distances, "
        "shape normalization, and plaintext table detection.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, run, scores=True):
        p.set_defaults(run=run)
        p.add_argument(
            "--normalize",
            choices=[m.value for m in NormalizationMode],
            default="cased",
            help="shape normalization applied to inputs (default: cased)",
        )
        if scores:
            p.add_argument(
                "--format", choices=["text", "json"], default="text",
                help="output format (default: text)",
            )
            p.add_argument(
                "--model", default="appendix-a",
                help="cost model: 'unit', 'appendix-a', or a path to a "
                "model file (default: appendix-a)",
            )

    p_dist = sub.add_parser("dist", help="edit distance between two strings or files")
    modes = sorted(a.value for a in Algorithm)
    p_dist.add_argument("--mode", choices=modes, default="ws-agnostic")
    p_dist.add_argument(
        "--files", action="store_true",
        help="treat the operands as files compared line-by-line "
        "('-' reads standard input)",
    )
    p_dist.add_argument("--tab-width", type=tab_width, default=8)
    add_common(p_dist, _run_dist)
    p_dist.add_argument("left")
    p_dist.add_argument("right")

    p_norm = sub.add_parser("normalize", help="normalize a text stream")
    add_common(p_norm, _run_normalize, scores=False)
    p_norm.add_argument("input", nargs="?", default="-")

    p_det = sub.add_parser("detect", help="detect table regions in a text stream")
    p_det.add_argument("--threshold", type=float, default=0.5)
    p_det.add_argument("--min-rows", type=int, default=3)
    p_det.add_argument("--tab-width", type=tab_width, default=8)
    add_common(p_det, _run_detect)
    p_det.add_argument("input", nargs="?", default="-")
    return parser


def _run_dist(args) -> str:
    algorithm = Algorithm(args.mode)
    model = _resolve_model(args.model)
    mode = NormalizationMode(args.normalize)
    width = args.tab_width
    if not args.files:
        left, right = args.left.expandtabs(width), args.right.expandtabs(width)
        brk, pairs = None, 1
    elif args.left == args.right == "-":
        raise ValueError("--files can read standard input ('-') for one operand only")
    else:
        # expandtabs restarts its column at each "\n" and "\r", so a whole
        # text expands as each of its lines would on its own
        (left, n1), (right, n2) = (fold_lines(_read_text(operand).expandtabs(width))
                                   for operand in (args.left, args.right))
        brk, pairs = "\n", max(n1, n2)
    if algorithm is Algorithm.NAIVE_ORACLE:
        # looked up on each call, so a function swapped into the table is used
        compute = _DISPATCH[algorithm]
        lines = zip_longest(left.split(brk), right.split(brk), fillvalue="") if brk else [
            (left, right)]
        costs = [compute(normalize_line(a, mode), normalize_line(b, mode), model)
                 for a, b in islice(lines, pairs)]
    else:
        costs = _paired_distances(left, right, brk, pairs, model,
                                  algorithm is Algorithm.WS_AGNOSTIC, mode)
    total, n = sum(costs), len(costs)
    # each line number and its cost, for one % over a repeated template:
    # json.dumps's text for these ints, exact at any size
    numbered = [0] * (2 * n)
    numbered[::2], numbered[1::2] = range(n), costs
    if args.format == "json":
        items = ", ".join(['{"line": %d, "cost": %d}'] * n) % tuple(numbered)
        return f'{{"pairs": [{items}], "total": {total}}}\n'
    if args.files:
        return ("%d\t%d\n" * n + "total\t%d\n") % (*numbered, total)
    return f"{total}\n"


def _run_normalize(args) -> str:
    mode = NormalizationMode(args.normalize)
    # line breaks map to themselves, so the text normalizes as a whole
    return normalize_line(_read_text(args.input), mode)


def _run_detect(args) -> str:
    config = DetectConfig(
        threshold=args.threshold,
        min_rows=args.min_rows,
        mode=NormalizationMode(args.normalize),
        model=_resolve_model(args.model),
        tab_width=args.tab_width,
    )
    regions = detect_tables(split_lines(_read_text(args.input)), config)
    if args.format == "json":
        return json.dumps({
            "regions": [
                {"start_line": r.start_line, "end_line": r.end_line, "score": r.score}
                for r in regions
            ]
        }) + "\n"
    return "".join(f"{r.start_line} {r.end_line} {r.score:.4f}\n" for r in regions)


def _write(output: str) -> int:
    """Write ``output`` to standard output: EXIT_OK, or EXIT_OUTPUT when
    that fails.  A reader that closed the pipe early is not reported."""
    stream = sys.stdout
    try:
        if stream is None:  # Python's stand-in for a closed descriptor 1
            raise OSError("standard output is closed")
        if hasattr(stream, "buffer"):
            # unbuffered (python -u), the bytes go to the raw file, which may take
            # part of a write: the rest is written again, and a failure raises
            data = memoryview(output.encode(stream.encoding, stream.errors))
            stream.flush()
            while data:
                data = data[stream.buffer.write(data):]
        else:  # a text stream with no bytes beneath it
            stream.write(output)
        stream.flush()
    except (OSError, UnicodeEncodeError) as exc:  # a character stdout's encoding lacks
        if not isinstance(exc, BrokenPipeError):
            print(f"wsadist: cannot write output: {exc}", file=sys.stderr)
        # Python flushes standard output again at exit, where what is left in
        # its buffer would fail with an "Exception ignored" message
        try:
            fd = stream.fileno()
        except (AttributeError, OSError):  # no file behind it
            return EXIT_OUTPUT
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_OUTPUT
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = args.run(args)
    except ModelError as exc:
        print(f"wsadist: bad cost model: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnicodeDecodeError as exc:  # a ValueError, but unreadable input
        print(f"wsadist: cannot read input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"wsadist: {exc}", file=sys.stderr)
        return EXIT_USAGE if not isinstance(exc, SizeLimitError) else EXIT_SIZE
    except OSError as exc:
        print(f"wsadist: cannot read input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return _write(output)


if __name__ == "__main__":
    sys.exit(main())
