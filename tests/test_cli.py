import argparse
import contextlib
import errno
import io
import json
import logging
import os
import random
import resource
import signal
import subprocess
import sys
import tracemalloc
from array import array
from itertools import zip_longest
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from wsadist import (
    Algorithm,
    CostModel,
    DetectConfig,
    NormalizationMode,
    TableRegion,
    appendix_model,
    detect_tables,
    distance,
    kernel_backend,
    normalize_line,
    serialize_model,
)
import wsadist.cli as cli
import wsadist.kernel as kernel
from wsadist.cli import COMMANDS, _regions_json, _rows, fold_lines, main, parse_args
from wsadist.distance import _DISPATCH
from test_cost_model import UNPARSABLE_JSON
from test_kernel import LIST_TABLES
from test_table_detect import MODELS, PIECES, random_document

SRC = Path(__file__).resolve().parents[1] / "src"

THREE_ROW_TABLE = (
    "Bill Nye\t6 ft 0 inches\t190 lb\n"
    "Tina Fey\t5 ft 5 inches\t\n"
    "Mike Fox\t5 ft 4 inches\t130 lb\n"
)


def cli_env():
    """The environment of a fresh ``wsadist`` process, buffered as by
    default: without PYTHONUNBUFFERED, which the tests of unbuffered
    output set themselves."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONPATH=str(SRC))


def close_after_first_line(argv, env):
    """Run ``wsadist`` on ``argv`` in a fresh process with ``env``, read one
    line of its output and close the pipe: that line, the exit status and
    standard error."""
    proc = subprocess.Popen([sys.executable, "-m", "wsadist.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return first, proc.wait(timeout=60), err


def write_dist_document(path):
    """20,000 lines, whose ``dist --files`` output against themselves is
    about 149 KB: more than a pipe holds."""
    path.write_text("".join(f"aa {k}\tbb\n" for k in range(20000)), encoding="utf-8")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDist:
    def test_ws_agnostic_unit(self, capsys):
        code, out, _ = run(capsys, "dist", "--mode", "ws-agnostic", "--model", "unit", "abc   ", "abc")
        assert code == 0
        assert out == "0\n"

    def test_ws_agnostic_appendix(self, capsys):
        code, out, _ = run(capsys, "dist", "--mode", "ws-agnostic", "--model", "appendix-a", "aaaaA  99  99", "aaaaA")
        assert (code, out) == (0, "4\n")

    def test_standard_appendix(self, capsys):
        code, out, _ = run(capsys, "dist", "--mode", "standard", "--model", "appendix-a", "aaaaA  99  99", "aaaaA")
        assert (code, out) == (0, "8\n")

    def test_naive_oracle_agrees(self, capsys):
        _, fast, _ = run(capsys, "dist", "--mode", "ws-agnostic", "aaaaA  99", "aaaaA")
        _, naive, _ = run(capsys, "dist", "--mode", "naive-oracle", "aaaaA  99", "aaaaA")
        assert fast == naive

    def test_normalization_applied(self, capsys):
        code, out, _ = run(capsys, "dist", "--model", "unit", "Value1   ", "Worth2")
        assert (code, out) == (0, "0\n")  # both normalize to 'Aaaaa9'

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "dist", "--format", "json", "aaaaA  99  99", "aaaaA")
        assert (code, out) == (0, '{"pairs": [{"line": 0, "cost": 4}], "total": 4}\n')

    def test_file_mode_pairs_positionally(self, capsys, tmp_path):
        f1 = tmp_path / "a.txt"
        f2 = tmp_path / "b.txt"
        f1.write_text("aa\nbb\ncc\n")
        f2.write_text("aa\nbd\n")
        argv = ["dist", "--files", "--model", "unit", "--normalize", "none", str(f1), str(f2)]
        assert run(capsys, *argv) == (0, "0\t0\n1\t1\n2\t2\ntotal\t3\n", "")
        assert run(capsys, *argv, "--format", "json") == (0, (
            '{"pairs": [{"line": 0, "cost": 0}, {"line": 1, "cost": 1}, '
            '{"line": 2, "cost": 2}], "total": 3}\n'
        ), "")

    def test_file_mode_json_roundtrip(self, capsys, tmp_path):
        f1 = tmp_path / "a.txt"
        f2 = tmp_path / "b.txt"
        f1.write_text("aa 1\naa 2\n")
        f2.write_text("aa 1\n")
        code, out, _ = run(capsys, "dist", "--files", "--format", "json", str(f1), str(f2))
        doc = json.loads(out)
        assert set(doc) == {"pairs", "total"}
        assert doc["total"] == sum(p["cost"] for p in doc["pairs"])
        assert [p["line"] for p in doc["pairs"]] == [0, 1]

    def test_stdin_operand(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("sys.stdin", io.StringIO("aa\n"))
        f2 = tmp_path / "b.txt"
        f2.write_text("aa\n")
        code, out, _ = run(capsys, "dist", "--files", "-", str(f2))
        assert (code, out.strip().splitlines()[-1]) == (0, "total\t0")

    @pytest.mark.parametrize("mode", [a.value for a in Algorithm])
    def test_mode_matches_library(self, capsys, mode):
        left, right = "aaaaA  99  99", "aaaaA"
        cost = distance(left, right, appendix_model(), Algorithm(mode)).cost
        argv = ["dist", "--mode", mode, "--normalize", "none", left, right]
        assert run(capsys, *argv) == (0, f"{cost}\n", "")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert (code, json.loads(out)["total"]) == (0, cost)

    def test_empty_files(self, capsys, tmp_path):
        empty, other = tmp_path / "e.txt", tmp_path / "f.txt"
        empty.write_text("")
        other.write_text("")
        code, out, _ = run(capsys, "dist", "--files", "--format", "json", str(empty), str(other))
        assert (code, out) == (0, '{"pairs": [], "total": 0}\n')
        assert run(capsys, "dist", "--files", str(empty), str(other)) == (0, "total\t0\n", "")

    def test_custom_model_file(self, capsys, tmp_path):
        model = tmp_path / "m.json"
        model.write_text('{"indel_default": 2, "replace_default": 2}')
        code, out, _ = run(capsys, "dist", "--mode", "standard", "--model", str(model), "--normalize", "none", "ab", "")
        assert (code, out) == (0, "4\n")


class TestNormalize:
    def test_simple(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Bill Nye\n"))
        code, out, _ = run(capsys, "normalize", "--normalize", "simple")
        assert (code, out) == (0, "aaaa aaa\n")

    def test_cased_default(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Value1\n"))
        code, out, _ = run(capsys, "normalize")
        assert (code, out) == (0, "Aaaaa9\n")

    def test_empty_stream(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, out, _ = run(capsys, "normalize")
        assert (code, out) == (0, "")

    def test_line_structure_preserved(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("A1\r\nb2\nlast"))
        code, out, _ = run(capsys, "normalize")
        assert (code, out) == (0, "A9\r\na9\naaaa")

    def test_line_breaks_kept_verbatim(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Ab1\r\nc\u2028D2\r\n\r\u0416\x0b5 z"))
        code, out, _ = run(capsys, "normalize")
        assert (code, out) == (0, "Aa9\r\na\u2028A9\r\n\rA\x0b9 a")

    def test_tabs_not_expanded(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a\tb\n"))
        code, out, _ = run(capsys, "normalize")
        assert out == "a\ta\n"

    def test_file_line_breaks_kept_verbatim(self, capsys, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_bytes("Ab1\r\nc\rD2\n\u2028e\r".encode())
        assert run(capsys, "normalize", str(doc)) == (0, "Aa9\r\na\rA9\n\u2028a\r", "")

    def test_takes_no_format_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["normalize", "--format", "json", "-"])
        assert exc.value.code == 2


class TestDetect:
    def test_three_row_table(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(THREE_ROW_TABLE))
        code, out, _ = run(capsys, "detect")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1
        start, end, score = lines[0].split()
        assert (start, end) == ("0", "2")
        assert 0.0 <= float(score) <= 1.0

    def test_json_schema(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(THREE_ROW_TABLE))
        code, out, _ = run(capsys, "detect", "--format", "json")
        doc = json.loads(out)
        assert doc["regions"] == [
            {"start_line": 0, "end_line": 2, "score": pytest.approx(doc["regions"][0]["score"])}
        ]

    def test_empty_stream(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, out, _ = run(capsys, "detect", "--format", "json")
        assert (code, json.loads(out)) == (0, {"regions": []})

    def test_long_pair_does_not_abort(self, capsys, tmp_path):
        # two adjacent 9000-char lines exceed the distance's cell limit
        doc = tmp_path / "doc.txt"
        doc.write_text(THREE_ROW_TABLE + "\n" + ("aaaa 99 " * 1125 + "\n") * 2)
        code, out, _ = run(capsys, "detect", str(doc))
        assert code == 0
        assert [line.split()[:2] for line in out.splitlines()] == [["0", "2"]]

    def test_prose_no_regions_exit_zero(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("one line of text\nand a different shape 99\n"))
        code, out, _ = run(capsys, "detect")
        assert (code, out) == (0, "")


# Every character that str.splitlines breaks at besides "\n" and "\r\n";
# the CLI keeps each inside its line.
NOT_LINE_BREAKS = {"cr": "\r", "vt": "\x0b", "ff": "\x0c", "fs": "\x1c", "gs": "\x1d",
                   "rs": "\x1e", "nel": "\x85", "ls": "\u2028", "ps": "\u2029"}


class TestLines:
    r"""A line ends at "\n", and one "\r" before it is dropped."""

    @pytest.mark.parametrize("char", NOT_LINE_BREAKS.values(), ids=NOT_LINE_BREAKS.keys())
    def test_detect_breaks_only_at_newline(self, capsys, tmp_path, char):
        doc = tmp_path / "doc.txt"
        doc.write_text(f"a 1\tb\nc 2\td{char}.\ne 3\tf\n", encoding="utf-8", newline="")
        code, out, _ = run(capsys, "detect", "--format", "json", "--min-rows", "3", str(doc))
        # split at the character, "." would be a line between two rows, and
        # no region of three
        lines = ["a 1\tb", f"c 2\td{char}.", "e 3\tf"]
        regions = detect_tables(lines, DetectConfig(min_rows=3, model=appendix_model()))
        assert code == 0 and [r.end_line for r in regions] == [2]
        assert json.loads(out)["regions"] == [
            {"start_line": r.start_line, "end_line": r.end_line, "score": r.score}
            for r in regions]

    @pytest.mark.parametrize("char", NOT_LINE_BREAKS.values(), ids=NOT_LINE_BREAKS.keys())
    def test_dist_files_breaks_only_at_newline(self, capsys, tmp_path, char):
        left, right = tmp_path / "left.txt", tmp_path / "right.txt"
        left.write_text(f"a{char}9\nb\n", encoding="utf-8", newline="")
        right.write_text("a\nb\n", encoding="utf-8", newline="")
        code, out, _ = run(capsys, "dist", "--files", "--format", "json", "--normalize", "none",
                           str(left), str(right))
        first = distance(f"a{char}9", "a", appendix_model()).cost
        assert (code, json.loads(out)["pairs"]) == (
            0, [{"line": 0, "cost": first}, {"line": 1, "cost": 0}])

    @pytest.mark.parametrize("subcommand", ["detect", "dist"])
    def test_crlf_is_one_break(self, capsys, monkeypatch, tmp_path, subcommand):
        r"""A "\r\n" document reads as its "\n" twin, from a file or stdin."""
        crlf = THREE_ROW_TABLE.replace("\n", "\r\n")
        lf = tmp_path / "lf.txt"
        lf.write_text(THREE_ROW_TABLE, encoding="utf-8")
        (tmp_path / "crlf.txt").write_bytes(crlf.encode())
        # dist compares each document with the "\n" one
        argv = [subcommand] if subcommand == "detect" else [subcommand, "--files"]
        other = [] if subcommand == "detect" else [str(lf)]
        outputs = []
        for operand in (lf, tmp_path / "crlf.txt", "-"):
            monkeypatch.setattr("sys.stdin", io.StringIO(crlf))
            outputs.append(run(capsys, *argv, str(operand), *other))
        assert outputs[0][0] == 0 and outputs[0][1] and outputs.count(outputs[0]) == 3

    def test_fold_lines(self):
        r"""The folded text's lines, cut at "\n" to its count, are the
        lines of the rule."""
        for text, folded, lines in [("", "", []), ("\n", "\n", [""]),
                                    ("a\r\n\r\nb\r\r\nc\r", "a\n\nb\r\nc", ["a", "", "b\r", "c"]),
                                    ("a\n\nb", "a\n\nb", ["a", "", "b"])]:
            assert fold_lines(text) == (folded, len(lines))
            assert folded.split("\n")[:len(lines)] == lines == reference_lines(text)


class TestExitCodes:
    def test_bad_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--mode", "psychic", "a", "b"])
        assert exc.value.code == 2

    def test_missing_operand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "onlyone"])
        assert exc.value.code == 2

    def test_unreadable_input_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "detect", str(tmp_path / "missing.txt"))
        assert code == 3
        assert "cannot read" in err

    def test_unreadable_file_mode_exits_3(self, capsys, tmp_path):
        code, _, _ = run(capsys, "dist", "--files", str(tmp_path / "nope"), str(tmp_path / "nada"))
        assert code == 3

    @pytest.mark.parametrize("subcommand", ["detect", "dist"])
    def test_non_utf8_input_exits_3(self, capsys, tmp_path, subcommand):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"a\n\xff\xfe\n")
        files = [str(bad)] if subcommand == "detect" else ["--files", str(bad), str(bad)]
        code, out, err = run(capsys, subcommand, *files)
        assert (code, out) == (3, "")
        assert "cannot read" in err

    def test_stdin_for_both_files_exits_2(self, capsys, monkeypatch):
        stdin = io.StringIO("aa\n")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "dist", "--files", "-", "-")
        assert (code, out) == (2, "")
        assert "standard input" in err
        assert stdin.tell() == 0

    @pytest.mark.parametrize("width", ["0", "-3"])
    @pytest.mark.parametrize("argv", [["dist", "a", "b"], ["detect"]], ids=["dist", "detect"])
    def test_tab_width_below_one_exits_2(self, capsys, argv, width):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--tab-width", width, *argv[1:]])
        assert exc.value.code == 2
        assert "tab width must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("width", ["2147483648", "99999999999999999999"])
    @pytest.mark.parametrize("argv", [["dist", "a\tb", "a"], ["detect"]], ids=["dist", "detect"])
    def test_tab_width_past_a_c_int_exits_2(self, capsys, argv, width):
        # str.expandtabs takes a C int
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--tab-width", width, *argv[1:]])
        assert exc.value.code == 2
        assert "tab width must be >= 1 and < 2**31" in capsys.readouterr().err

    def test_largest_tab_width_is_taken(self, capsys):
        assert run(capsys, "dist", "--tab-width", str((1 << 31) - 1), "ab", "ab") == (0, "0\n", "")

    @pytest.mark.parametrize("argv", [["detect", "-"], ["dist", "--files", "-"]],
                             ids=["detect", "dist"])
    def test_non_utf8_stdin_exits_3(self, capsys, monkeypatch, tmp_path, argv):
        """Standard input is decoded as strict UTF-8, as a file is, whatever
        error handler the stream itself has."""
        other = tmp_path / "ok.txt"
        other.write_text("ab\n", encoding="utf-8")
        operands = [str(other)] if "--files" in argv else []
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"ab\xff\n"),
                                                          errors="surrogateescape"))
        code, out, err = run(capsys, *argv, *operands)
        assert (code, out) == (3, "")
        assert "cannot read input" in err

    @pytest.mark.parametrize("argv", [["detect", "-"], ["normalize"], ["dist", "--files", "-"]],
                             ids=["detect", "normalize", "dist"])
    def test_closed_stdin_exits_3(self, capsys, monkeypatch, tmp_path, argv):
        """Python sets ``sys.stdin`` to None when descriptor 0 is closed."""
        other = tmp_path / "ok.txt"
        other.write_text("ab\n", encoding="utf-8")
        operands = [str(other)] if "--files" in argv else []
        monkeypatch.setattr("sys.stdin", None)
        assert run(capsys, *argv, *operands) == (
            3, "", "wsadist: cannot read input: standard input is closed\n")
        # the same in a fresh process whose descriptor 0 is closed
        proc = subprocess.run(["sh", "-c", 'exec "$@" <&-', "sh", sys.executable, "-m",
                               "wsadist.cli", *argv, *operands],
                              capture_output=True, text=True, env=cli_env(), timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3, "", "wsadist: cannot read input: standard input is closed\n")

    @pytest.mark.parametrize("argv", [["detect"], ["normalize"], ["dist", "--files"],
                                      ["dist", "a", "b"]],
                             ids=["detect", "normalize", "dist-files", "dist"])
    def test_closed_stdout_exits_5(self, capsys, monkeypatch, tmp_path, argv):
        """Python sets ``sys.stdout`` to None when descriptor 1 is closed."""
        doc = tmp_path / "doc.txt"
        doc.write_text(THREE_ROW_TABLE, encoding="utf-8")
        operands = [] if argv[-1] == "b" else [str(doc)] * (2 if "--files" in argv else 1)
        message = "wsadist: cannot write output: standard output is closed\n"
        monkeypatch.setattr("sys.stdout", None)
        assert run(capsys, *argv, *operands) == (5, "", message)
        # the same in a fresh process whose descriptor 1 is closed
        proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m",
                               "wsadist.cli", *argv, *operands],
                              stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=60)
        assert (proc.returncode, proc.stderr) == (5, message)

    def test_stdin_bytes_read_as_a_file_is(self, capsys, monkeypatch, tmp_path):
        r"""A "\r", alone or before "\n", reaches the output from standard
        input as from a file, where a text stream would translate it."""
        data = "Ab1\r\nc\rD2\n\u0416 z".encode()
        doc = tmp_path / "doc.txt"
        doc.write_bytes(data)
        from_file = run(capsys, "normalize", str(doc))
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert run(capsys, "normalize", "-") == from_file
        assert from_file[0] == 0 and "\r\n" in from_file[1]

    def test_output_stdout_cannot_encode_exits_5(self, capsys, monkeypatch, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text("5 \u20ac\n", encoding="utf-8")
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        monkeypatch.setattr("sys.stdout", stdout)
        assert main(["normalize", str(doc)]) == 5
        assert capsys.readouterr().err.startswith(
            "wsadist: cannot write output: 'ascii' codec can't encode character '\\u20ac'")
        assert stdout.buffer.getvalue() == b""

    def test_size_limit_exits_4(self, capsys):
        code, _, err = run(capsys, "dist", "--mode", "naive-oracle", "a" * 300, "b" * 300)
        assert code == 4
        assert "limit" in err

    @pytest.mark.parametrize("mode", ["ws-agnostic", "standard"])
    def test_size_limit_in_file_mode_exits_4(self, capsys, tmp_path, mode):
        # line 0 is fine; line 1 is 9000 x 9000 cells, over the limit
        left, right = tmp_path / "a.txt", tmp_path / "b.txt"
        left.write_text("aa 1\n" + "a" * 9000 + "\nbb\n")
        right.write_text("aa 2\n" + "b" * 9000 + "\n")
        code, out, err = run(capsys, "dist", "--files", "--mode", mode, str(left), str(right))
        assert (code, out) == (4, "")
        assert "9000 x 9000" in err

    def test_size_limit_names_the_first_pair_over_it(self, capsys, tmp_path):
        # lines 1 and 2 are both over the limit, line 2 by more
        left, right = tmp_path / "a.txt", tmp_path / "b.txt"
        left.write_text("aa\n" + "a" * 8193 + "\n" + "a" * 9000 + "\n")
        right.write_text("aa\n" + "b" * 8193 + "\n" + "b" * 9000 + "\n")
        code, out, err = run(capsys, "dist", "--files", str(left), str(right))
        assert (code, out, err) == (
            4, "", "wsadist: 8193 x 8193 exceeds the 67108864-cell limit\n")

    def test_size_limit_on_interpreted_kernel(self, capsys, tmp_path, fresh_kernel, monkeypatch,
                                              caplog):
        """The same exit, stdout and message as on the compiled kernel, under
        a lowered limit: pair 1 is over it, and pair 2 by more."""
        monkeypatch.setenv("CC", "/nonexistent/cc")
        # the module: the package's attribute `distance` is the function
        monkeypatch.setattr(sys.modules["wsadist.distance"], "DEFAULT_MAX_CELLS", 100)
        left, right = tmp_path / "a.txt", tmp_path / "b.txt"
        left.write_text("aa\n" + "a" * 11 + "\n" + "a" * 20 + "\n")
        right.write_text("ab\n" + "b" * 10 + "\n" + "b" * 20 + "\n")
        with caplog.at_level(logging.WARNING, logger="wsadist"):
            assert kernel_backend() == "interpreted"
            code, out, err = run(capsys, "dist", "--files", str(left), str(right))
        assert (code, out, err) == (4, "", "wsadist: 11 x 10 exceeds the 100-cell limit\n")

    def test_bad_model_file_exits_2(self, capsys, tmp_path):
        model = tmp_path / "bad.json"
        model.write_text('{"indel_default": -5}')
        code, _, err = run(capsys, "dist", "--model", str(model), "a", "b")
        assert code == 2
        assert "bad cost model" in err

    @pytest.mark.parametrize("doc", UNPARSABLE_JSON, ids=["deep", "long-int"])
    def test_model_json_cannot_parse_exits_2(self, capsys, tmp_path, doc):
        model = tmp_path / "bad.json"
        model.write_text(doc)
        code, out, err = run(capsys, "dist", "--model", str(model), "a", "b")
        assert (code, out) == (2, "")
        assert err.startswith("wsadist: bad cost model: malformed model document: ")

    def test_missing_model_file_exits_3(self, capsys, tmp_path):
        code, _, _ = run(capsys, "dist", "--model", str(tmp_path / "nope.json"), "a", "b")
        assert code == 3

    @pytest.mark.parametrize("error, message", [
        (BrokenPipeError(32, "Broken pipe"), ""),
        (OSError(28, "No space left on device"),
         "wsadist: cannot write output: [Errno 28] No space left on device\n"),
    ], ids=["closed-pipe", "disk-full"])
    def test_output_failure_exits_5(self, capsys, monkeypatch, error, message):
        class Failing(io.StringIO):
            def write(self, text):
                raise error

        monkeypatch.setattr("sys.stdout", Failing())
        assert main(["dist", "a", "b"]) == 5
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("subcommand", ["detect", "dist"])
    def test_reader_closing_early_exits_5_quietly(self, tmp_path, subcommand):
        """``| head -1``: stdout fails, not the input, and no traceback or
        "Exception ignored" follows at exit.  The output is larger than a
        pipe holds, so the reader is gone before it is all written."""
        doc = tmp_path / "doc.txt"
        if subcommand == "detect":
            doc.write_text((THREE_ROW_TABLE + "\n") * 6000, encoding="utf-8")
            argv, want = ["detect", str(doc)], b"0 2 0.7727\n"
        else:
            write_dist_document(doc)
            argv, want = ["dist", "--files", str(doc), str(doc)], b"0\t0\n"
        assert close_after_first_line(argv, cli_env()) == (want, 5, b"")

    def test_reader_closing_early_unbuffered_exits_5_quietly(self, tmp_path):
        """Under PYTHONUNBUFFERED the bytes go straight to the pipe, which
        takes part of the write when the reader leaves; the rest is
        written again, and that write fails."""
        doc = tmp_path / "doc.txt"
        write_dist_document(doc)
        env = dict(cli_env(), PYTHONUNBUFFERED="1")
        assert close_after_first_line(["dist", "--files", str(doc), str(doc)], env) == (
            b"0\t0\n", 5, b"")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_file_size_limit_exits_5(self, tmp_path, unbuffered):
        """A file size limit below the output: the first write to the file
        is cut short at the limit, and the next fails with EFBIG."""
        doc, out = tmp_path / "doc.txt", tmp_path / "out.txt"
        write_dist_document(doc)
        limit = 100_000

        def limit_file_size():  # in the child only
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)

        env = dict(cli_env(), PYTHONUNBUFFERED="1") if unbuffered else cli_env()
        with open(out, "wb") as fh:
            proc = subprocess.run([sys.executable, "-m", "wsadist.cli", "dist", "--files",
                                   str(doc), str(doc)], stdout=fh, stderr=subprocess.PIPE,
                                  env=env, preexec_fn=limit_file_size, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (
            5, f"wsadist: cannot write output: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n")
        assert out.stat().st_size == limit

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [["detect"], ["dist", "--files"], ["normalize"]],
                             ids=["detect", "dist", "normalize"])
    def test_full_device_exits_5(self, tmp_path, argv):
        doc = tmp_path / "doc.txt"
        doc.write_text(THREE_ROW_TABLE, encoding="utf-8")
        operands = [str(doc)] * (2 if "--files" in argv else 1)
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "wsadist.cli", *argv, *operands],
                                  stdout=full, stderr=subprocess.PIPE, text=True, env=cli_env())
        assert (proc.returncode, proc.stderr) == (
            5, "wsadist: cannot write output: [Errno 28] No space left on device\n")


class TestParserOnce:
    def test_bad_argv_then_good_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--normalize", "none", "--mode", "psychic", "a", "b"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, "dist", "--model", "unit", "Value1   ", "Worth2") == (0, "0\n", "")
        # a flag of one call does not carry over to the next
        assert run(capsys, "dist", "--model", "unit", "--normalize", "none", "ab", "a") == (
            0, "1\n", "")
        assert run(capsys, "dist", "--model", "unit", "Ab", "Aa") == (0, "0\n", "")

    def test_subcommands_in_turn_match_fresh_processes(self, capsys, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text(THREE_ROW_TABLE + "\nprose 1\n")
        other = tmp_path / "other.txt"
        other.write_text("Bill Nye\t6 ft\n\nMike\n")
        calls = [
            ["dist", "--files", "--format", "json", str(doc), str(other)],
            ["detect", str(doc)],
            ["normalize", "--normalize", "simple", str(doc)],
            ["dist", "--mode", "standard", "--files", str(other), str(doc)],
            ["detect", "--format", "json", "--min-rows", "2", str(other)],
            ["normalize", str(other)],
            ["dist", "Aa 9", "Aa  99"],
        ]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for argv in calls:
            fresh = subprocess.run([sys.executable, "-m", "wsadist.cli", *argv], env=env,
                                   capture_output=True, text=True, check=True).stdout
            assert run(capsys, *argv) == (0, fresh, ""), argv


class ReferenceParser(argparse.ArgumentParser):
    """argparse, but for one misreading: it drops a "--" from every value
    it reads, so it read ``--flag=--`` as ``[]``, and so an operand "--"
    after the "--" that ended the flags when another operand took that one
    (``dist a -- --``), and the run then failed.  ``parse_args`` reads such
    a "--" as itself, and so does this reference."""

    def _get_values(self, action, arg_strings):
        if arg_strings == ["--"] and action.nargs is None:  # a value, not the end of the flags
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser that the CLI used before it read its own flags,
    as ``ReferenceParser``: the reference for ``parse_args``."""
    def tab_width(text):
        width = int(text)
        if not 1 <= width < 1 << 31:
            raise argparse.ArgumentTypeError(f"tab width must be >= 1 and < 2**31, got {width}")
        return width

    parser = ReferenceParser(prog="wsadist")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, scores=True):
        p.add_argument("--normalize", choices=[m.value for m in NormalizationMode],
                       default="cased")
        if scores:
            p.add_argument("--format", choices=["text", "json"], default="text")
            p.add_argument("--model", default="appendix-a")

    p_dist = sub.add_parser("dist")
    p_dist.add_argument("--mode", choices=sorted(a.value for a in Algorithm),
                        default="ws-agnostic")
    p_dist.add_argument("--files", action="store_true")
    p_dist.add_argument("--tab-width", type=tab_width, default=8)
    add_common(p_dist)
    p_dist.add_argument("left")
    p_dist.add_argument("right")
    p_norm = sub.add_parser("normalize")
    add_common(p_norm, scores=False)
    p_norm.add_argument("input", nargs="?", default="-")
    p_det = sub.add_parser("detect")
    p_det.add_argument("--threshold", type=float, default=0.5)
    p_det.add_argument("--min-rows", type=int, default=3)
    p_det.add_argument("--tab-width", type=tab_width, default=8)
    add_common(p_det)
    p_det.add_argument("input", nargs="?", default="-")
    return parser


def parsed(parse, argv):
    """``parse(argv)``'s values without ``run``, or the code it exits with;
    what it prints is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            values = vars(parse(argv))
        except SystemExit as exc:
            return exc.code
    values.pop("run", None)
    return values


# each flag's good values, then bad ones; "--" is drawn after "=" too
VALUES = {"--mode": (["standard", "ws-agnostic", "naive-oracle"], ["psychic"]),
          "--normalize": (["simple", "cased", "none"], ["Cased"]),
          "--format": (["text", "json"], ["xml"]),
          "--model": (["unit", "appendix-a", "-", "a b", "", "-5"], []),
          "--tab-width": (["1", "4", " 8 ", "2147483647"], ["0", "-3", "2147483648", "x"]),
          "--threshold": (["0.25", "-0.5", "-.5", "1e3", "nan"], ["-1e3", "-inf", "x", ""]),
          "--min-rows": (["2", "-3", "1_0"], ["2.5", "-5."]), "--files": ([], ["yes", ""])}
OPERANDS = ["a", "b b", "-", "-5", "-0.5", "-x y", "", "x.txt"]
STRAYS = ["--", "-h", "--help", "-hh", "-hx", "-h=h", "--he", "-x", "-5.", "---", "--=x",
          "--bogus", "-"]


@st.composite
def flag_tokens(draw, flags):
    """One of ``flags``, cut to a prefix or whole, alone, with a value
    after "=" or with a value as the next token."""
    flag = draw(st.sampled_from(flags))
    name = flag[:draw(st.integers(3, len(flag) + 12))]
    good, bad = VALUES[flag]
    if not good:
        return draw(st.sampled_from([[name]] * 6 + [[f"{name}={value}"] for value in bad]))
    value = draw(st.sampled_from(good) if draw(st.integers(0, 3)) else
                 st.sampled_from([*bad, "--"]))
    return draw(st.sampled_from([[f"{name}={value}"], [name, value]] * 3 + [[name]]))


@st.composite
def argvs(draw):
    """A subcommand, a bogus one or none; mostly its own flags, good values
    and the right number of operands, in any order, with "--" now and then;
    and a stray token before or after the subcommand, now and then."""
    command = draw(st.sampled_from([*COMMANDS, "dist", "detect", "frobnicate", None]))
    own = sorted(COMMANDS[command][0]) if command in COMMANDS else sorted(VALUES)
    items = draw(st.lists(flag_tokens(own) | flag_tokens(own) | flag_tokens(own)
                          | flag_tokens(sorted(VALUES)), max_size=4))
    wanted = len(COMMANDS[command][1]) if command in COMMANDS else 1
    count = draw(st.sampled_from([wanted] * 4 + [0, 1, 3]))
    items += [[token] for token in draw(st.lists(st.sampled_from(OPERANDS), min_size=count,
                                                 max_size=count))]
    items += draw(st.lists(st.sampled_from(STRAYS).map(lambda token: [token]), max_size=1)
                  | st.just([]) | st.just([]))
    tokens = [token for item in draw(st.permutations(items)) for token in item]
    if draw(st.integers(0, 3)) == 0:  # "--" ends the flags: a later item's tokens are operands
        tokens.insert(draw(st.integers(0, len(tokens))), "--")
    before = draw(st.sampled_from([[]] * 12 + [["-h"], ["--he"], ["-x"], ["--"], ["-hh"], ["-5"]]))
    return [*before, *([command] if command else []), *tokens]


ARGVS = argvs()


class TestOwnParser:
    @pytest.mark.skipif(sys.version_info >= (3, 12),
                        reason="the reference is argparse as Python 3.10 and 3.11 have it")
    @settings(max_examples=3000, deadline=None)
    @given(ARGVS)
    def test_parser_matches_argparse(self, argv):
        """What the reference accepts reads the same, with a nan equal to
        itself; what it refuses exits 2, and a help request exits 0."""
        assert repr(parsed(parse_args, argv)) == repr(parsed(reference_parser().parse_args, argv))

    @pytest.mark.parametrize("argv", [[], *([command] for command in COMMANDS)],
                             ids=["top", *COMMANDS])
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_names_every_flag(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag])
        out = capsys.readouterr().out
        assert exc.value.code == 0 and out.startswith("usage: wsadist ")
        for command in argv or COMMANDS:
            assert all(name in out for name in COMMANDS[command][0]), command

    @pytest.mark.parametrize("argv, message", [
        (["dist", "--mode", "psychic", "a", "b"], "argument --mode: invalid choice: 'psychic'"),
        (["dist", "--m", "unit", "a", "b"], "ambiguous option: --m could match --mode, --model"),
        (["detect", "--min-rows"], "argument --min-rows: expected one argument"),
        (["detect", "--files"], "unrecognized arguments: --files"),
        (["dist", "--files=yes", "a", "b"], "argument --files: ignored explicit argument 'yes'"),
        (["dist", "a"], "the following arguments are required: right"),
        (["frobnicate"], "invalid subcommand: 'frobnicate'"),
        ([], "no subcommand"),
        (["dist", "-hx"], "argument -h/--help: ignored explicit argument 'x'"),
    ])
    def test_error_prints_usage_and_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2 and err.startswith("usage: wsadist ")
        assert f"\nwsadist: error: {message}" in err

    def test_forms_of_a_flag(self):
        """``=``, a prefix, ``--`` and negative numbers, and the last of a
        repeated flag wins."""
        args = parse_args(["detect", "--thr=-0.5", "--min", "-3", "--th", "0.25", "--mo=unit",
                           "--", "-h"])
        assert (args.threshold, args.min_rows, args.model, args.input) == (0.25, -3, "unit", "-h")
        args = parse_args(["dist", "-", "--fi", "--", "--files"])
        assert (args.files, args.left, args.right, args.mode) == (True, "-", "--files",
                                                                   "ws-agnostic")

def random_text(rng):
    r"""A file for ``dist --files``: empty, whitespace-only lines and ones
    built from ``PIECES``, which hold tabs, some with a "\r" in mid-line
    before a tab; each line ends in "\n", or each in "\r\n", and the last
    may lack its ending."""
    lines = []
    for _ in range(rng.randint(0, 9)):
        kind = rng.random()
        if kind < 0.25:
            lines.append("")
        elif kind < 0.4:
            lines.append(rng.choice([" ", "\t", "   ", " \t "]))
        else:
            lines.append("".join(rng.choice([*PIECES, "a\r\t"])
                                 for _ in range(rng.randint(1, 8))))
    end = rng.choice(["\n", "\r\n"])
    text = "".join(line + end for line in lines)
    return text.removesuffix(end) if rng.random() < 0.3 else text


def reference_lines(text):
    r"""The lines of ``text`` by the rule, one line at a time: each ends at
    "\n", the last may lack it, and one "\r" at a line's end is dropped."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def reference_output(left, right, model, mode, fmt, tab_width, normalize):
    """``dist --files``'s stdout for files of the texts ``left`` and
    ``right``, their lines split one at a time by ``reference_lines``, then
    each tab-expanded on its own and scored one pair at a time through the
    mode table."""
    compute = _DISPATCH[Algorithm(mode)]
    norm = NormalizationMode(normalize)

    def prepare(s):
        return normalize_line(s.expandtabs(tab_width), norm)

    costs = [compute(prepare(a), prepare(b), model)
             for a, b in zip_longest(reference_lines(left), reference_lines(right),
                                     fillvalue="")]
    if fmt == "json":
        return json.dumps({"pairs": [{"line": k, "cost": c} for k, c in enumerate(costs)],
                           "total": sum(costs)}) + "\n"
    return "".join(f"{k}\t{c}\n" for k, c in enumerate(costs)) + f"total\t{sum(costs)}\n"


def assert_file_mode_matches_pairs(capsys, tmp_path, seed):
    """``dist --files``, which scores every pair in one kernel call, against
    each pair scored on its own, under every model, tab width and
    normalization mode."""
    rng = random.Random(seed)
    paths = [tmp_path / name for name in ("left.txt", "right.txt", "model.json")]
    for n, model in enumerate([*MODELS, LIST_TABLES]):
        paths[2].write_text(serialize_model(model))
        for tab_width in (1, 4, 8):
            for normalize in (m.value for m in NormalizationMode):
                left, right = random_text(rng), random_text(rng)
                for path, text in zip(paths, (left, right)):
                    path.write_bytes(text.encode())
                for mode in ("ws-agnostic", "standard"):
                    for fmt in ("text", "json"):
                        argv = ["dist", "--files", "--mode", mode, "--model", str(paths[2]),
                                "--format", fmt, "--tab-width", str(tab_width),
                                "--normalize", normalize, str(paths[0]), str(paths[1])]
                        want = reference_output(left, right, model, mode, fmt, tab_width,
                                                normalize)
                        assert run(capsys, *argv) == (0, want, ""), (argv, left, right, n)


# path sums of 2 ** 64 and more
BIG = CostModel(indel_default=1 << 62, replace_default=1 << 62)


class TestFileModeOneKernelCall:
    def test_on_compiled_kernel_matches_single_pairs(self, capsys, tmp_path):
        if kernel_backend() != "compiled":
            pytest.skip("no compiled kernel")
        assert_file_mode_matches_pairs(capsys, tmp_path, 20261101)

    def test_on_interpreted_kernel_matches_single_pairs(self, capsys, tmp_path, fresh_kernel,
                                                        monkeypatch, caplog):
        monkeypatch.setenv("CC", "/nonexistent/cc")
        with caplog.at_level(logging.WARNING, logger="wsadist"):
            assert kernel_backend() == "interpreted"
            assert_file_mode_matches_pairs(capsys, tmp_path, 20261102)

    @pytest.mark.parametrize("mode, model", [
        ("naive-oracle", appendix_model()),
        ("ws-agnostic", BIG), ("standard", BIG), ("naive-oracle", BIG),
    ], ids=["naive-oracle", "big-ws-agnostic", "big-standard", "big-naive-oracle"])
    def test_json_is_json_dumps(self, capsys, tmp_path, mode, model):
        """The JSON output, written without ``json``, is byte for byte
        ``json.dumps``'s, for the naive oracle and for costs past int64."""
        left, right = "aaa\nAb 9\n\n\tx\n", "bbbb\nAb 9\nx\ty\n"
        paths = [tmp_path / name for name in ("left.txt", "right.txt", "model.json")]
        for path, text in zip(paths, (left, right, serialize_model(model))):
            path.write_text(text)
        argv = ["dist", "--files", "--mode", mode, "--model", str(paths[2]), "--format", "json",
                "--normalize", "none", str(paths[0]), str(paths[1])]
        want = reference_output(left, right, model, mode, "json", 8, "none")
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, want, "")
        assert json.loads(out)["total"] >= (1 << 64 if model is BIG else 1)


@settings(max_examples=300, deadline=None)
@example([], "x")
@example([0], "")
@example([9], "x")
@example([0, 9, 10, (1 << 63) - 1], "")
@given(st.lists(st.integers(-(1 << 63), (1 << 63) - 1)), st.text("ab9 ]}", max_size=4))
def test_c_rows_are_the_percent_template(costs, tail):
    """The C library's rows, written from an array('q'), are byte for byte
    the % template's, written from the same costs as a list, with JSON's
    pieces and with text's, for no rows, one row and many, costs at the
    int64 extremes included."""
    if kernel_backend() != "compiled":
        pytest.skip("no compiled kernel")
    for head, row in (('{"pairs": [', cli._JSON_ROW), ("", cli._TEXT_ROW)):
        assert _rows(array("q", costs), head, row, tail) == _rows(costs, head, row, tail)


DIST_TEXTS = ["", "\n", "aaa\nAb 9\n\n\tx\n", "bbbb\nAb 9\nx\ty", "Ab 9 \n  \n"]


def test_dist_output_on_both_kernel_routes(capsys, tmp_path, monkeypatch):
    r"""``dist``'s stdout is byte for byte the same whether the C library
    writes it, from the compiled kernel's int64 costs, or the % template
    does, from the interpreted kernel's ints: in both formats, on empty
    files, files of unequal line counts, last lines with no "\n", single
    pairs, and a model whose sums pass int64, which takes the interpreted
    route and the template on both."""
    if kernel_backend() != "compiled":
        pytest.skip("no compiled kernel")
    argvs = []
    for n, model in enumerate([appendix_model(), MODELS[2], BIG]):
        (tmp_path / f"model{n}.json").write_text(serialize_model(model))
        flags = ["--model", str(tmp_path / f"model{n}.json"), "--normalize", "none"]
        for fmt in ("text", "json"):
            for mode in ("ws-agnostic", "standard"):
                argvs += [["dist", *flags, "--format", fmt, "--mode", mode, "Ab 9", "a  "]]
                for i, left in enumerate(DIST_TEXTS):
                    for j, right in enumerate(DIST_TEXTS):
                        paths = [tmp_path / f"left{i}.txt", tmp_path / f"right{j}.txt"]
                        for path, text in zip(paths, (left, right)):
                            path.write_bytes(text.encode())
                        argvs.append(["dist", "--files", *flags, "--format", fmt, "--mode", mode,
                                      *map(str, paths)])
    written = []
    monkeypatch.setattr(cli, "write_rows", lambda *args: written.append(args) or
                        kernel.write_rows(*args))
    compiled = [run(capsys, *argv) for argv in argvs]
    # at least every --files run and JSON single pair under the two int64 models
    calls = len(written)
    assert calls >= 2 * 2 * (2 * len(DIST_TEXTS) ** 2 + 1)
    monkeypatch.setattr(kernel, "_compiled", None)
    assert kernel_backend() == "interpreted"
    for argv, output in zip(argvs, compiled):
        assert run(capsys, *argv) == output, argv
    assert len(written) == calls


def regions_dumps(regions):
    """``detect --format json``'s output for ``regions`` by ``json.dumps``."""
    return json.dumps({"regions": [
        {"start_line": r.start_line, "end_line": r.end_line, "score": r.score} for r in regions
    ]}) + "\n"


@settings(max_examples=500, deadline=None)
@example([(1 << 31, (1 << 63) + 5, 0.0), (0, 1, 1.0), ((1 << 64) + 1, 1 << 70, 0.1)])
@given(st.lists(st.tuples(st.integers(0, 1 << 70), st.integers(0, 1 << 70),
                          st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))))
def test_detect_json_is_json_dumps(rows):
    """``detect``'s JSON, written without ``json``, is byte for byte
    ``json.dumps``'s for the same regions: line numbers at any size, past
    2 ** 31 too, and scores of 0.0, 1.0 and anything between."""
    regions = [TableRegion(*row) for row in rows]
    assert _regions_json(regions) == regions_dumps(regions)


def test_detect_output_is_detect_tables(capsys, tmp_path):
    """``detect`` in either format on random documents, of table rows and
    of ``random_text``'s lines, against ``detect_tables`` on their lines,
    split one at a time by ``reference_lines``, its JSON written by
    ``json.dumps``."""
    rng = random.Random(20261021)
    doc = tmp_path / "doc.txt"
    for n in range(60):
        text = random_text(rng) if n % 3 == 0 else "\n".join(random_document(rng))
        doc.write_bytes(text.encode())
        threshold, min_rows = rng.choice([0.0, 0.25, 0.5, 0.9]), rng.randint(2, 4)
        regions = detect_tables(reference_lines(text), DetectConfig(threshold, min_rows))
        argv = ["detect", "--threshold", str(threshold), "--min-rows", str(min_rows), str(doc)]
        assert run(capsys, *argv, "--format", "json") == (0, regions_dumps(regions), ""), text
        assert run(capsys, *argv) == (0, "".join(
            f"{r.start_line} {r.end_line} {r.score:.4f}\n" for r in regions), ""), text


def line_split_text(rng):
    r"""A file for ``dist --files`` whose lines end in "\n", "\r\n" or
    "\r\r\n", with a lone "\r", NUL, tabs and non-ASCII letters inside
    them; its last line ends in "\n", "\r", "\r\n" or nothing.  Empty
    files and files of "\n" alone come up too."""
    kind = rng.random()
    if kind < 0.1:
        return ""
    if kind < 0.2:
        return "\n" * rng.randint(1, 3)
    pieces = ["a", "Ab", "9", " ", "  ", "\t", "\0", "é", "Жук", "漢", "𝔸", "x\ry", "\r"]
    lines = ["".join(rng.choice(pieces) for _ in range(rng.randint(0, 5)))
             for _ in range(rng.randint(1, 8))]
    text = "".join(line + rng.choice(["\n", "\r\n", "\r\r\n"]) for line in lines[:-1])
    return text + lines[-1] + rng.choice(["", "\n", "\r", "\r\n"])


def assert_line_split_matches_per_line(capsys, tmp_path, seed, models, count):
    """``dist --files``, whose kernel finds the lines of the two texts,
    against the lines split one at a time by ``reference_lines`` and each
    pair scored on its own, on texts of unequal line counts."""
    rng = random.Random(seed)
    paths = [tmp_path / name for name in ("left.txt", "right.txt", "model.json")]
    for model in models:
        paths[2].write_text(serialize_model(model))
        for _ in range(count):
            left, right = line_split_text(rng), line_split_text(rng)
            folded, count = fold_lines(left)
            assert folded.split("\n")[:count] == reference_lines(left), left
            for path, text in zip(paths, (left, right)):
                path.write_bytes(text.encode())
            normalize = rng.choice([m.value for m in NormalizationMode])
            tab_width = rng.choice([1, 4, 8])
            for mode in ("ws-agnostic", "standard"):
                for fmt in ("text", "json"):
                    argv = ["dist", "--files", "--mode", mode, "--model", str(paths[2]),
                            "--format", fmt, "--tab-width", str(tab_width),
                            "--normalize", normalize, str(paths[0]), str(paths[1])]
                    want = reference_output(left, right, model, mode, fmt, tab_width, normalize)
                    assert run(capsys, *argv) == (0, want, ""), (argv, left, right)


class TestFileModeLineSplit:
    def test_on_compiled_kernel(self, capsys, tmp_path):
        if kernel_backend() != "compiled":
            pytest.skip("no compiled kernel")
        assert_line_split_matches_per_line(capsys, tmp_path, 20261106, MODELS[:3], 40)

    def test_on_interpreted_kernel(self, capsys, tmp_path, fresh_kernel, monkeypatch, caplog):
        monkeypatch.setenv("CC", "/nonexistent/cc")
        with caplog.at_level(logging.WARNING, logger="wsadist"):
            assert kernel_backend() == "interpreted"
            assert_line_split_matches_per_line(capsys, tmp_path, 20261107, MODELS[:2], 25)

    def test_beyond_int64(self, capsys, tmp_path):
        """Costs whose path sums pass int64 take the interpreted route."""
        assert_line_split_matches_per_line(capsys, tmp_path, 20261108, [BIG], 25)


def short_lines(path, rng, count):
    """A text of ``count`` short lines, of words, spaces and tabs."""
    words = ["alpha", "Beta", "99", "x", "  ", "\t", "gamma-3", "(ok)"]
    path.write_text("".join(" ".join(rng.choice(words) for _ in range(rng.randint(0, 6)))
                            + "\n" for _ in range(count)), encoding="ascii")


def peak_per_input_byte(capsys, argv, paths):
    """The peak that ``tracemalloc`` sees in ``main(argv)``, per byte of
    the files at ``paths``, which hold 1 to 1.2 MB."""
    size = sum(path.stat().st_size for path in paths)
    assert 1_000_000 < size < 1_200_000
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().err) == (0, "")
    return peak / size


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_file_mode_memory_per_input_byte(capsys, tmp_path, fmt):
    """``dist --files`` on two texts of about 1 MB, of short lines, holds at
    its peak the texts, their normalized and translated copies and the
    four bytes of each code, under 9 bytes per input byte, in either
    format: no list of lines, which took about 14."""
    paths = [tmp_path / "left.txt", tmp_path / "right.txt"]
    rng = random.Random(20261111)
    for path in paths:
        short_lines(path, rng, 45_000)
    argv = ["dist", "--files", "--format", fmt, *map(str, paths)]
    assert peak_per_input_byte(capsys, argv, paths) < 9


def test_detect_memory_per_input_byte(capsys, tmp_path):
    """``detect`` on a text of about 1 MB, of short lines, holds at its peak
    the text, its normalized and translated copies and the four bytes of
    each code, under 9 bytes per input byte (8.3 measured): no list of
    lines, which took about 14."""
    path = tmp_path / "doc.txt"
    short_lines(path, random.Random(20261113), 90_000)
    assert peak_per_input_byte(capsys, ["detect", "--format", "json", str(path)], [path]) < 9
