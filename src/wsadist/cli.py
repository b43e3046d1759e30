r"""Command-line surface: ``wsadist dist|normalize|detect``.

``COMMANDS`` gives each subcommand's flags and operands, and
``parse_args`` reads argv against it in one pass: ``--flag value`` or
``--flag=value``, a flag's name cut to any prefix that no other flag
shares, ``--`` ending the flags, ``-`` and negative numbers taken as
values or operands, and the last of a repeated flag winning.  ``-h`` or
``--help`` prints the usage and exits 0; a bad flag, value or operand
prints a usage line and ``wsadist: error: ...`` on stderr and exits 2.

Exit codes: 0 success, 2 bad flags or bad cost-model document,
3 unreadable input, 4 a distance exceeds its size limit (``dist``),
5 standard output could not be written.

A line of input ends at "\n", which the last line may lack; one "\r"
before it is dropped.  No other character breaks a line.
"""

import os
import re
import sys
from itertools import islice, zip_longest
from types import SimpleNamespace

from .cost_model import CostModel, ModelError, appendix_model, load_model_file, unit_model
from .distance import _DISPATCH, Algorithm, SizeLimitError, _paired_distances
from .normalizer import NormalizationMode, normalize_line

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
    # a file and standard input alike are read as bytes and decoded as
    # strict UTF-8, so "\r" reaches fold_lines as it is; bare text streams as text
    if operand != "-":
        with open(operand, "rb") as fh:
            return fh.read().decode()
    stdin = sys.stdin
    if stdin is None:  # Python's stand-in for a closed descriptor 0
        raise OSError("standard input is closed")
    return stdin.buffer.read().decode() if hasattr(stdin, "buffer") else stdin.read()


def fold_lines(text: str) -> tuple[str, int]:
    r"""``text`` with every line ending at a bare "\n", and its number of
    lines: a line ends at "\n", which the last may lack, and the one "\r"
    that ends a line is dropped, before its "\n" or at the end of the
    text.  No other character ends a line, as ``str.splitlines`` has it."""
    count = text.count("\n") + (text[-1:] not in ("", "\n"))
    if "\r" in text:
        text = text.replace("\r\n", "\n").removesuffix("\r")
    return text, count


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
    # imported here, so that dist loads no detection
    from .table_detect import DetectConfig, _regions

    config = DetectConfig(
        threshold=args.threshold,
        min_rows=args.min_rows,
        mode=NormalizationMode(args.normalize),
        model=_resolve_model(args.model),
        tab_width=args.tab_width,
    )
    # expanded as a whole, as dist --files does
    text, count = fold_lines(_read_text(args.input).expandtabs(args.tab_width))
    regions = _regions(text, "\n", max(count - 1, 0), config)
    if args.format == "json":
        return _regions_json(regions)
    return "".join(f"{r.start_line} {r.end_line} {r.score:.4f}\n" for r in regions)


def _regions_json(regions) -> str:
    """``detect --format json``'s output for ``regions``: json.dumps's text,
    written without ``json``: ``%d`` gives its text for the line numbers,
    exact at any size, and ``%r`` for the scores, finite floats."""
    fields = [value for r in regions for value in (r.start_line, r.end_line, r.score)]
    items = ", ".join(['{"start_line": %d, "end_line": %d, "score": %r}'] * len(regions))
    return '{"regions": [%s]}\n' % (items % tuple(fields))


def tab_width(text: str) -> int:
    width = int(text)
    if not 1 <= width < 1 << 31:  # str.expandtabs takes a C int
        raise ValueError(f"tab width must be >= 1 and < 2**31, got {width}")
    return width


# each subcommand's flags, as name: (converter, choices, default), where a flag
# with no converter takes no value; its operands, as name: default, where one
# with no default must be given; and what runs it
_NORMALIZE = {"--normalize": (str, tuple(m.value for m in NormalizationMode), "cased")}
_SCORES = {"--format": (str, ("text", "json"), "text"), "--model": (str, None, "appendix-a")}
COMMANDS = {
    "dist": ({"--mode": (str, tuple(sorted(a.value for a in Algorithm)), "ws-agnostic"),
              "--files": (None, None, False), "--tab-width": (tab_width, None, 8),
              **_NORMALIZE, **_SCORES}, {"left": None, "right": None}, _run_dist),
    "normalize": (_NORMALIZE, {"input": "-"}, _run_normalize),
    "detect": ({"--threshold": (float, None, 0.5), "--min-rows": (int, None, 3),
                "--tab-width": (tab_width, None, 8), **_NORMALIZE, **_SCORES},
               {"input": "-"}, _run_detect),
}
HELP = """
MODEL is unit, appendix-a (the default) or a cost-model file.  An operand
of -, and INPUT when it is left out, reads standard input.
"""


def _usage(command) -> str:
    """The usage line of ``command``, or those of every subcommand."""
    if command is None:
        return "\n       ".join(map(_usage, COMMANDS))
    flags, operands, _ = COMMANDS[command]
    return " ".join(["wsadist", command, "[-h]"] + [
        f"[{flag}]" if convert is None else f"[{flag} {'|'.join(choices or [flag[2:].upper()])}]"
        for flag, (convert, choices, _) in flags.items()] + [
        f"[{name.upper()}]" if default else name.upper() for name, default in operands.items()])


def _fail(command, message):
    print(f"usage: {_usage(command)}\nwsadist: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _flag(token: str, names, command):
    """``(name, value)`` for ``token`` as one of ``names``, its value given
    after "=" or glued to -h, or None; ``(token, None)`` for an unknown
    flag; None for an operand."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    name, eq, value = token.partition("=")
    if token in names or eq and name in names:
        return name, value if eq else None
    if token[1] == "h":
        return "-h", token[2:]
    if token[1] == "-" and (hits := [full for full in names if full.startswith(name)]):
        if len(hits) > 1:
            _fail(command, f"ambiguous option: {token} could match {', '.join(hits)}")
        return hits[0], value if eq else None
    # as argparse has it, a negative number is an operand or a value
    return None if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token else (token, None)


def _read(tokens, flags, command=None):
    """``tokens`` read in order against ``flags``: their values, the operands
    and the unknown flags, which fail only once all of argv is read.  With
    no command, the first operand ends the read, and it and all that
    follows are the operands."""
    end = tokens.index("--") if command and "--" in tokens else len(tokens)
    # every token's kind first: an ambiguous flag fails before a -h is read
    kinds = [_flag(token, (*flags, "-h", "--help"), command) for token in tokens[:end]]
    values, operands, unknown = {}, [], []
    i = fixed = 0  # fixed: the operands read before the last flag
    while i < end:
        token, kind = tokens[i], kinds[i]
        i += 1
        if kind is None:
            if command is None:
                return values, tokens[i - 1:], unknown
            operands.append(token)
            continue
        fixed, (name, value) = len(operands), kind
        if name in ("-h", "--help"):  # argparse reads an h glued to -h as -h
            if value is None or name == "-h" and value and not value.strip("h"):
                print(f"usage: {_usage(command)}\n{HELP}", end="")
                raise SystemExit(EXIT_OK)
            _fail(command, f"argument -h/--help: ignored explicit argument {value!r}")
        if name not in flags:
            unknown.append(token)
            continue
        convert, choices, _ = flags[name]
        if convert is None and value is not None:
            _fail(command, f"argument {name}: ignored explicit argument {value!r}")
        if convert is not None and value is None:
            if i == end or kinds[i] is not None:
                _fail(command, f"argument {name}: expected one argument")
            value, i = tokens[i], i + 1
        try:
            values[name] = True if convert is None else convert(value)
        except ValueError as exc:
            _fail(command, f"argument {name}: {exc}")
        if choices and values[name] not in choices:
            _fail(command, f"argument {name}: invalid choice: {value!r}")
    if end < len(tokens) and fixed >= len(COMMANDS[command][1]):
        unknown.append("--")  # as argparse: "--" ends the flags only before an operand
    return values, operands + tokens[end + 1:], unknown


def parse_args(argv) -> SimpleNamespace:
    """The subcommand, its flags' values by destination, its operands, and
    ``run``, which runs it, read from ``argv``."""
    # the top level reads no further than the first token that is no flag
    top = next((i for i, token in enumerate(argv) if token[:1] != "-"), len(argv)) + 1
    _, operands, unknown = _read(argv[:top], {})
    operands += argv[top:]
    if not operands or operands[0] not in COMMANDS:
        _fail(None, f"invalid subcommand: {operands[0]!r}" if operands else "no subcommand")
    command, *tokens = operands
    flags, wanted, run = COMMANDS[command]
    values, operands, more = _read(tokens, flags, command)
    if missing := [name for name in list(wanted)[len(operands):] if wanted[name] is None]:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    if unknown := unknown + more + operands[len(wanted):]:
        _fail(command, f"unrecognized arguments: {' '.join(unknown)}")
    args = {name[2:].replace("-", "_"): values.get(name, default)
            for name, (_, _, default) in flags.items()}
    args.update(wanted, **dict(zip(wanted, operands)))
    return SimpleNamespace(subcommand=command, run=run, **args)


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
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
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
