import io
import json

import pytest

from wsadist import Algorithm, appendix_model, distance
from wsadist.cli import main

THREE_ROW_TABLE = (
    "Bill Nye\t6 ft 0 inches\t190 lb\n"
    "Tina Fey\t5 ft 5 inches\t\n"
    "Mike Fox\t5 ft 4 inches\t130 lb\n"
)


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
        empty = tmp_path / "e.txt"
        empty.write_text("")
        code, out, _ = run(capsys, "dist", "--files", "--format", "json", str(empty), str(empty))
        assert (code, out) == (0, '{"pairs": [], "total": 0}\n')

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

    def test_size_limit_exits_4(self, capsys):
        code, _, err = run(capsys, "dist", "--mode", "naive-oracle", "a" * 300, "b" * 300)
        assert code == 4
        assert "limit" in err

    def test_bad_model_file_exits_2(self, capsys, tmp_path):
        model = tmp_path / "bad.json"
        model.write_text('{"indel_default": -5}')
        code, _, err = run(capsys, "dist", "--model", str(model), "a", "b")
        assert code == 2
        assert "bad cost model" in err

    def test_missing_model_file_exits_3(self, capsys, tmp_path):
        code, _, _ = run(capsys, "dist", "--model", str(tmp_path / "nope.json"), "a", "b")
        assert code == 3
