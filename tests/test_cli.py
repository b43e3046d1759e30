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
from itertools import zip_longest
from pathlib import Path

import pytest

from wsadist import (
    Algorithm,
    CostModel,
    DetectConfig,
    NormalizationMode,
    appendix_model,
    detect_tables,
    distance,
    kernel_backend,
    normalize_line,
    serialize_model,
)
from wsadist.cli import build_parser, main, split_lines
from wsadist.distance import _DISPATCH
from test_cost_model import UNPARSABLE_JSON
from test_kernel import LIST_TABLES
from test_table_detect import MODELS, PIECES

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

    def test_split_lines(self):
        assert split_lines("") == []
        assert split_lines("\n") == [""]
        assert split_lines("a\r\n\r\nb\r\r\nc\r") == ["a", "", "b\r", "c"]
        assert split_lines("a\n\nb") == ["a", "", "b"]


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
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

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


def reference_output(left, right, model, mode, fmt, tab_width, normalize):
    """``dist --files``'s stdout for files of the texts ``left`` and
    ``right``, their lines split as ``split_lines`` does, then each
    tab-expanded on its own and scored one pair at a time through the
    mode table."""
    compute = _DISPATCH[Algorithm(mode)]
    norm = NormalizationMode(normalize)

    def prepare(s):
        return normalize_line(s.expandtabs(tab_width), norm)

    costs = [compute(prepare(a), prepare(b), model)
             for a, b in zip_longest(split_lines(left), split_lines(right), fillvalue="")]
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
