import os
import subprocess
import sys
import time
from collections import Counter
from functools import cached_property
from math import comb
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import mutated_text, reference_gaussian_binomial
from younglat import cli, partitions, poset, render, scd
from younglat.cli import main
from younglat.partitions import Shape
from younglat.poset import build_lattice, serialize_poset
from younglat.scd import lindstrom, scd_n2, serialize_decomposition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRanks:
    def test_3_3_exact_lines(self, capsys):
        code, out, _ = run(capsys, "ranks", "3", "3")
        assert code == 0
        assert out == "1\n1\n2\n3\n3\n3\n3\n2\n1\n1\n"

    # every m, n <= 24 has both parities of the degree m * n and both zero
    # sides, where the mirrored half is empty
    @pytest.mark.parametrize("m, n", [(m, n) for m in range(25) for n in range(25)]
                             + [(150, 150)])
    def test_one_line_per_reference_coefficient(self, capsys, m, n):
        want = "".join(f"{c}\n" for c in reference_gaussian_binomial(m, n))
        assert run(capsys, "ranks", str(m), str(n)) == (0, want, "")


class TestLattice:
    def test_reports_twenty_elements(self, capsys):
        code, out, _ = run(capsys, "lattice", "3", "3")
        assert code == 0
        assert out.splitlines()[0] == "poset L(3,3) height=9 count=20"

    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "l33.poset"
        code, out, err = run(capsys, "lattice", "3", "3", "--out", str(target))
        assert code == 0
        assert out == ""
        assert "20 elements" in err
        assert target.read_text() == serialize_poset(build_lattice(Shape(3, 3)))

    @pytest.mark.parametrize("block_lines", [1, 7])
    def test_streamed_blocks_give_the_written_bytes(self, tmp_path, monkeypatch, capsys,
                                                    block_lines):
        # the blocks go out one by one: the file gets the bytes Path.write_text
        # gives the whole text, and stdout gets the text
        monkeypatch.setattr(poset, "_BLOCK_LINES", block_lines)
        text = serialize_poset(build_lattice(Shape(4, 3), "composition"))
        whole, target = tmp_path / "whole.poset", tmp_path / "streamed.poset"
        whole.write_text(text, encoding="utf-8")
        argv = ["lattice", "4", "3", "--coords", "composition"]
        assert run(capsys, *argv, "--out", str(target))[:2] == (0, "")
        assert target.read_bytes() == whole.read_bytes()
        assert run(capsys, *argv) == (0, text, "")

    def test_composition_coordinates(self, capsys):
        code, out, _ = run(capsys, "lattice", "2", "2", "--coords", "composition")
        assert code == 0
        assert out.splitlines()[0].startswith("poset L'(2,2)")


class TestIdentities:
    def test_pass_with_split_sizes(self, capsys):
        code, out, _ = run(capsys, "identities", "3", "3")
        assert code == 0
        assert "elements with a part of size 3: 10" in out
        assert "elements without: 10" in out
        assert out.rstrip().endswith("PASS")


class TestScdCommands:
    def test_lindstrom_then_verify(self, tmp_path, capsys):
        poset_file = tmp_path / "p.poset"
        scd_file = tmp_path / "d.scd"
        assert run(capsys, "lattice", "1", "3", "--out", str(poset_file))[0] == 0
        assert run(capsys, "scd", "lindstrom", "1", "--out", str(scd_file))[0] == 0
        code, out, _ = run(capsys, "scd", "verify", str(poset_file), str(scd_file))
        assert code == 0
        assert "verdict: PASS" in out

    def test_verify_tampered_file(self, tmp_path, capsys):
        poset_file = tmp_path / "p.poset"
        scd_file = tmp_path / "d.scd"
        run(capsys, "lattice", "3", "3", "--out", str(poset_file))
        run(capsys, "scd", "lindstrom", "3", "--out", str(scd_file))
        lines = scd_file.read_text().splitlines()
        lines[1] = " ".join(lines[1].split()[:-1])  # drop the bottom element
        scd_file.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "scd", "verify", str(poset_file), str(scd_file))
        assert code == 1
        assert "verdict: FAIL" in out
        assert "missing elements: 1" in out

    def test_verify_shape_mismatch(self, tmp_path, capsys):
        poset_file = tmp_path / "p.poset"
        scd_file = tmp_path / "d.scd"
        run(capsys, "lattice", "4", "3", "--out", str(poset_file))
        run(capsys, "scd", "lindstrom", "3", "--out", str(scd_file))
        code, out, _ = run(capsys, "scd", "verify", str(poset_file), str(scd_file))
        assert code == 1
        assert "mismatch" in out

    def test_verify_shape_mismatch_exact_line(self, tmp_path, capsys):
        poset_file = tmp_path / "p.poset"
        scd_file = tmp_path / "d.scd"
        run(capsys, "lattice", "2", "3", "--coords", "composition", "--out", str(poset_file))
        run(capsys, "scd", "lindstrom", "3", "--out", str(scd_file))
        assert run(capsys, "scd", "verify", str(poset_file), str(scd_file)) == (
            1, "shape mismatch: poset L'(2,3) vs decomposition L'(3,3)\n", "")

    def test_n2_roundtrip(self, tmp_path, capsys):
        poset_file = tmp_path / "p.poset"
        scd_file = tmp_path / "d.scd"
        run(capsys, "lattice", "6", "2", "--out", str(poset_file))
        run(capsys, "scd", "n2", "6", "--out", str(scd_file))
        code, out, _ = run(capsys, "scd", "verify", str(poset_file), str(scd_file))
        assert code == 0

    def test_brute_finds_and_prints(self, capsys):
        code, out, _ = run(capsys, "scd", "brute", "3", "3")
        assert code == 0
        assert out.startswith("scd L'(3,3) chains=3\n")

    def test_brute_on_an_empty_lattice(self, capsys):
        assert run(capsys, "scd", "brute", "0", "5") == (0, "scd L'(0,5) chains=0\n", "")

    def test_brute_not_found_line(self, capsys, monkeypatch):
        # no lattice lacks a decomposition, so the search's proof is stubbed
        monkeypatch.setattr(cli, "brute_force_scd",
                            lambda p, budget: scd.SearchResult("not-found", None, 7))
        assert run(capsys, "scd", "brute", "3", "3") == (
            1, "not-found: no symmetric chain decomposition (7 assignments)\n", "")

    def test_brute_budget_exhaustion(self, capsys):
        code, out, _ = run(capsys, "scd", "brute", "4", "3", "--budget", "2")
        assert code == 1
        assert out.startswith("budget-exhausted")

    def test_budget_default_is_the_library_default(self):
        import inspect

        args = cli._build_parser().parse_args(["scd", "brute", "3", "3"])
        library = inspect.signature(scd.brute_force_scd).parameters["budget"].default
        assert args.budget == library == scd.DEFAULT_BUDGET == 100_000_000

    def test_generated_files_always_verify(self, tmp_path, capsys):
        for m in range(1, 21):
            poset_file = tmp_path / f"p{m}.poset"
            scd_file = tmp_path / f"d{m}.scd"
            run(capsys, "lattice", str(m), "3", "--out", str(poset_file))
            run(capsys, "scd", "lindstrom", str(m), "--out", str(scd_file))
            code, _, _ = run(capsys, "scd", "verify", str(poset_file), str(scd_file))
            assert code == 0, f"m={m}"

    def test_deterministic_output(self, capsys):
        first = run(capsys, "scd", "lindstrom", "8")[1]
        second = run(capsys, "scd", "lindstrom", "8")[1]
        assert first == second


class TestRender:
    def test_dot_output(self, tmp_path, capsys):
        poset_file = tmp_path / "p.poset"
        run(capsys, "lattice", "3", "3", "--out", str(poset_file))
        code, out, _ = run(capsys, "render", str(poset_file))
        assert code == 0
        assert out.startswith('digraph "L(3,3)"')
        assert out.count(" -> ") == 30

    def test_svg_with_highlight(self, tmp_path, capsys):
        poset_file = tmp_path / "p.poset"
        scd_file = tmp_path / "d.scd"
        run(capsys, "lattice", "3", "2", "--out", str(poset_file))
        run(capsys, "scd", "n2", "3", "--out", str(scd_file))
        code, out, _ = run(
            capsys, "render", str(poset_file),
            "--scd", str(scd_file), "--format", "svg", "--labels", "young",
        )
        assert code == 0
        assert out.count('stroke-width="2.6"') == 8

    def test_render_shape_mismatch_is_usage_error(self, tmp_path, capsys):
        poset_file = tmp_path / "p.poset"
        scd_file = tmp_path / "d.scd"
        run(capsys, "lattice", "3", "3", "--out", str(poset_file))
        run(capsys, "scd", "n2", "3", "--out", str(scd_file))
        code, _, err = run(capsys, "render", str(poset_file), "--scd", str(scd_file))
        assert code == 2
        assert "mismatch" in err

    def test_render_shape_mismatch_exact_line(self, tmp_path, capsys):
        poset_file = tmp_path / "p.poset"
        scd_file = tmp_path / "d.scd"
        run(capsys, "lattice", "2", "3", "--coords", "composition", "--out", str(poset_file))
        run(capsys, "scd", "lindstrom", "3", "--out", str(scd_file))
        assert run(capsys, "render", str(poset_file), "--scd", str(scd_file)) == (
            2, "", "error: shape mismatch: poset L'(2,3) vs decomposition L'(3,3)\n")

    def test_svg_height_limit_is_a_usage_error(self, tmp_path, capsys):
        poset_file = tmp_path / "p.poset"
        run(capsys, "lattice", "8", "8", "--out", str(poset_file))
        assert run(capsys, "render", str(poset_file), "--format", "svg") == (
            2, "", "error: poset height 64 exceeds the drawing limit 60\n")

    def test_svg_refuses_another_shape_before_the_height(self, tmp_path, capsys):
        poset_file = tmp_path / "p.poset"
        scd_file = tmp_path / "d.scd"
        run(capsys, "lattice", "8", "8", "--coords", "composition", "--out", str(poset_file))
        run(capsys, "scd", "lindstrom", "3", "--out", str(scd_file))
        argv = ["render", str(poset_file), "--scd", str(scd_file), "--format", "svg"]
        assert run(capsys, *argv) == (
            2, "", "error: shape mismatch: poset L'(8,8) vs decomposition L'(3,3)\n")

    def test_svg_refuses_the_height_before_an_absent_key(self, tmp_path, capsys):
        poset_file = tmp_path / "p.poset"
        scd_file = tmp_path / "d.scd"
        run(capsys, "lattice", "8", "8", "--coords", "composition", "--out", str(poset_file))
        scd_file.write_text("scd L'(8,8) chains=1\n900000000\n", encoding="utf-8")
        argv = ["render", str(poset_file), "--scd", str(scd_file), "--format", "svg"]
        assert run(capsys, *argv) == (
            2, "", "error: poset height 64 exceeds the drawing limit 60\n")


class TestKeysReadOnce:
    """A command that parsed the poset reads the decomposition's keys through
    the poset's key strings: no key is parsed, and each is formatted once,
    by the key strings (made once per poset, in any of their three
    spellings: digits, mixed, bracketed) or singly or in a batch elsewhere."""

    @pytest.mark.parametrize("m", [6, 10, 40])
    @pytest.mark.parametrize("command", [["scd", "verify"], ["render"]])
    def test_each_key_is_formatted_once_and_never_parsed(self, tmp_path, monkeypatch,
                                                         capsys, command, m):
        poset_file, scd_file = str(tmp_path / "p.poset"), str(tmp_path / "d.scd")
        run(capsys, "lattice", str(m), "3", "--coords", "composition", "--out", poset_file)
        run(capsys, "scd", "lindstrom", str(m), "--out", scd_file)
        formatted, parsed = Counter(), []

        def key_strings(self, original=poset.GradedPoset.key_strings.func):
            formatted.update(self.elements)
            return original(self)

        spy = cached_property(key_strings)
        spy.__set_name__(poset.GradedPoset, "key_strings")
        monkeypatch.setattr(poset.GradedPoset, "key_strings", spy)

        def format_one(key, original=partitions.format_composition):
            formatted[key] += 1
            return original(key)

        def format_batch(keys, original=partitions.format_compositions):
            formatted.update(keys)
            return original(keys)

        def parse_one(text, original=partitions.parse_composition):
            parsed.append(text)
            return original(text)

        counting = {"format_composition": format_one, "format_compositions": format_batch,
                    "parse_composition": parse_one}
        for name, fake in counting.items():
            # poset formats keys only in key_strings, counted above
            for module in (partitions, scd, render, cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, fake)
        argv = [*command, poset_file] + (
            ["--scd", scd_file] if command == ["render"] else [scd_file])
        assert run(capsys, *argv)[0] == 0
        elements = build_lattice(Shape(m, 3)).elements
        assert len(elements) == comb(m + 3, 3)
        assert formatted == Counter(elements)
        assert parsed == []


class TestErrorPaths:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_subcommand(self, capsys):
        assert run(capsys, "scd")[0] == 2

    def test_negative_argument(self, capsys):
        assert run(capsys, "ranks", "-1", "3")[0] == 2

    @pytest.mark.parametrize("argv,message", [
        (["lattice", "1_0", "3"], "argument m: not a number in ASCII digits, "
                                  "no leading zero: '1_0'"),
        (["lattice", "٣", "3"], "argument m: not a number in ASCII digits, "
                                     "no leading zero: '٣'"),
        (["lattice", "-0", "3"], "argument m: not a number in ASCII digits, "
                                 "no leading zero: '-0'"),
        (["lattice", "2", " 7"], "argument n: not a number in ASCII digits, "
                                 "no leading zero: ' 7'"),
        (["ranks", "+7", "3"], "argument m: not a number in ASCII digits, "
                               "no leading zero: '+7'"),
        (["ranks", "07", "3"], "argument m: not a number in ASCII digits, "
                               "no leading zero: '07'"),
        (["identities", "-01", "2"], "argument m: not a number in ASCII digits, "
                                     "no leading zero: '-01'"),
        (["scd", "lindstrom", "1_0"], "argument m: not a number in ASCII digits, "
                                      "no leading zero: '1_0'"),
        (["scd", "brute", "2", "2", "--budget", "1_000"],
         "argument --budget: not a number in ASCII digits, no leading zero: '1_000'"),
        (["ranks", "-1", "3"], "argument m: must be nonnegative, got -1"),
        (["identities", "0", "2"], "argument m: must be positive, got 0"),
        (["scd", "n2", "-3"], "argument m: must be positive, got -3"),
        (["scd", "brute", "2", "2", "--budget", "-1"],
         "argument --budget: must be nonnegative, got -1"),
    ])
    def test_numbers_the_files_refuse_are_usage_errors(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1].endswith(f"error: {message}")

    def test_parse_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.poset"
        bad.write_text("poset L(2,2) height=4 count=6\n0 0 002\ngarbage\n")
        code, _, err = run(capsys, "render", str(bad))
        assert code == 2
        # L(2,2) has 13 lines; the text ends after its third
        assert err == f"error: {bad}: line 4: expected 13 lines, got 3\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "render", "/nonexistent/p.poset")
        assert code == 2
        assert err

    def test_negative_dimension_header_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "neg.poset"
        bad.write_text("poset L'(-1,3) height=0 count=0\n")
        scd_file = tmp_path / "d.scd"
        assert run(capsys, "scd", "lindstrom", "1", "--out", str(scd_file))[0] == 0
        for argv in (("scd", "verify", str(bad), str(scd_file)), ("render", str(bad))):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "line 1: negative" in err

    def test_negative_dimension_decomposition_header_is_a_parse_error(self, tmp_path, capsys):
        poset_file = tmp_path / "p.poset"
        assert run(capsys, "lattice", "1", "3", "--coords", "composition",
                   "--out", str(poset_file))[0] == 0
        bad = tmp_path / "neg.scd"
        bad.write_text("scd L'(-1,3) chains=0\n")
        for argv in (("scd", "verify", str(poset_file), str(bad)),
                     ("render", str(poset_file), "--scd", str(bad))):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "line 1: negative" in err

    def test_label_not_starting_with_l_is_a_parse_error(self, tmp_path, capsys):
        text = serialize_poset(build_lattice(Shape(2, 2)))
        bad = tmp_path / "x.poset"
        bad.write_text(text.replace("L(2,2)", "X(2,2)", 1))
        scd_file = tmp_path / "d.scd"
        assert run(capsys, "scd", "n2", "2", "--out", str(scd_file))[0] == 0
        code, out, err = run(capsys, "scd", "verify", str(bad), str(scd_file))
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}: line 1: bad lattice label: 'X(2,2)'\n"

    @pytest.mark.parametrize("argv", [("lattice", "13", "13"),
                                      ("scd", "brute", "13", "13")])
    def test_shape_over_element_limit_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: L(13,13) has more than 4,000,000 elements\n"

    @pytest.mark.parametrize("argv", [("lattice", "1", "100000"),
                                      ("identities", "1", "20000"),
                                      ("scd", "brute", "1", "100000")])
    def test_shape_over_key_entry_limit_is_a_usage_error(self, capsys, argv):
        # far under the element limit, but (n + 1)^2 key entries
        n = int(argv[-1])
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == (f"error: L(1,{n}) has {n + 1:,} keys of {n + 1:,} entries, "
                       f"over the limit of 40,000,000 entries\n")

    @pytest.mark.parametrize("poset_text,scd_text,field", [
        ("poset L(2,2) height=\u00b2 count=6\n", "scd L'(2,2) chains=1\n002\n", "height=\u00b2"),
        (None, "scd L'(2,2) chains=\u00b2\n", "chains=\u00b2"),
    ])
    def test_superscript_header_digit_is_a_parse_error(self, tmp_path, capsys,
                                                       poset_text, scd_text, field):
        poset_file, scd_file = tmp_path / "p.poset", tmp_path / "d.scd"
        poset_file.write_text(poset_text or serialize_poset(build_lattice(Shape(2, 2))),
                              encoding="utf-8")
        scd_file.write_text(scd_text, encoding="utf-8")
        code, out, err = run(capsys, "scd", "verify", str(poset_file), str(scd_file))
        assert code == 2
        assert out == ""
        # both headers' fields are compared with the writer's: a poset header
        # after the line count, so the one-line poset file fails on its
        # missing second line, a decomposition header after the chain lines
        expected = {
            "height=\u00b2": f"{poset_file}: line 2: expected 13 lines, got 1",
            "chains=\u00b2": f"{scd_file}: line 1: expected \"scd L'(2,2) chains=0\", "
                             f"got \"scd L'(2,2) {field}\"",
        }
        assert err == f"error: {expected[field]}\n"

    @pytest.mark.parametrize("argv, label", [(("scd", "lindstrom", "287"), "L(287,3)"),
                                             (("scd", "n2", "2827"), "L(2827,2)"),
                                             (("scd", "lindstrom", "100000000"), "L(100000000,3)"),
                                             (("scd", "n2", "1000000000"), "L(1000000000,2)")])
    def test_construction_over_element_limit_is_a_usage_error(self, capsys, argv, label):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.1
        assert code == 2
        assert out == ""
        assert err == f"error: {label} has more than 4,000,000 elements\n"

    def test_undecodable_file_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.poset"
        bad.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "render", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode")

    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "x"
        for argv in (("lattice", "2", "2"), ("scd", "lindstrom", "3"), ("scd", "n2", "3")):
            code, out, err = run(capsys, *argv, "--out", str(target))
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and str(target) in err

    @pytest.mark.parametrize("argv", [
        ["lattice", "1", "1", "--out", "a\x00b"],
        ["scd", "n2", "1", "--out", "\ud800"],
        ["render", "a\x00b"],
        ["scd", "verify", "\ud800", "b"],
    ])
    def test_unusable_file_name_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        # a NUL or a lone surrogate can reach main() from Python, not from a shell
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: '") and err.endswith("\n")

    # one case per branch of the file-error mapping: argv, the file name it
    # uses, the same operation done directly, and the message built from what
    # that operation raises
    @pytest.mark.parametrize("argv, path, operation, message", [
        (["render", "gone.poset"], "gone.poset", "read", "{exc}"),
        (["render", "."], ".", "read", "{exc}"),
        (["render", "bad.utf8"], "bad.utf8", "read", "{path}: {exc}"),
        (["render", "bad.poset"], "bad.poset", "parse", "{path}: {exc}"),
        (["lattice", "1", "1", "--out", "no/x"], "no/x", "write", "{exc}"),
        (["render", "a\x00b"], "a\x00b", "read", "{path!r}: {exc}"),
        (["lattice", "1", "1", "--out", "a\x00b"], "a\x00b", "write", "{path!r}: {exc}"),
        (["scd", "verify", "\ud800", "b"], "\ud800", "read", "{path!r}: {exc}"),
        (["scd", "n2", "1", "--out", "\ud800"], "\ud800", "write", "{path!r}: {exc}"),
    ], ids=["missing", "directory", "undecodable", "malformed", "missing-out-directory",
            "nul-in", "nul-out", "surrogate-in", "surrogate-out"])
    def test_each_file_refusal_is_one_exact_line(self, tmp_path, monkeypatch, capsys,
                                                 argv, path, operation, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.utf8").write_bytes(b"\xff\xfe")
        (tmp_path / "bad.poset").write_text("poset L(2,2) height=4 count=6\n0 0 002\ngarbage\n")
        direct = {"read": lambda: Path(path).read_text(encoding="utf-8"),
                  "parse": lambda: poset.parse_poset(Path(path).read_text(encoding="utf-8")),
                  "write": lambda: Path(path).open("w", encoding="utf-8")}[operation]
        with pytest.raises((OSError, ValueError)) as raised:
            direct()
        expected = message.format(path=path, exc=raised.value)
        assert run(capsys, *argv) == (2, "", f"error: {expected}\n")

    def test_highlight_key_not_in_poset_is_a_usage_error(self, tmp_path, capsys):
        poset_file, scd_file = tmp_path / "p.poset", tmp_path / "d.scd"
        poset_file.write_text(serialize_poset(build_lattice(Shape(2, 2))))
        scd_file.write_text("scd L'(2,2) chains=1\n200 300\n")
        code, out, err = run(capsys, "render", str(poset_file), "--scd", str(scd_file))
        assert code == 2
        assert out == ""
        assert err == "error: highlight element (2, 0, 0) or (3, 0, 0) not in poset\n"

    @pytest.mark.parametrize("fmt", ["dot", "svg"])
    def test_lone_highlight_key_not_in_poset_is_a_usage_error(self, tmp_path, capsys, fmt):
        poset_file, scd_file = tmp_path / "p.poset", tmp_path / "d.scd"
        poset_file.write_text(serialize_poset(build_lattice(Shape(2, 2), "composition")))
        scd_file.write_text("scd L'(2,2) chains=1\n202\n")
        code, out, err = run(capsys, "render", str(poset_file), "--scd", str(scd_file),
                             "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == "error: highlight element (2, 0, 2) not in poset\n"

    @pytest.mark.parametrize("old,new", [
        ("L(2,2)", "L(+2,2)"), ("L(2,2)", "L(2,0_2)"), ("L(2,2)", "L(\u0662,2)"),
        ("\n1 1 011\n", "\n+1 1 011\n"), ("\n1 1 011\n", "\n1 1 [0,1,+1]\n"),
        ("\n0 1 2\n", "\n0 0_1 2\n"),
    ])
    def test_numbers_other_than_ascii_digits_are_parse_errors(self, tmp_path, capsys,
                                                              old, new):
        text = serialize_poset(build_lattice(Shape(2, 2)))
        bad = tmp_path / "bad.poset"
        bad.write_text(text.replace(old, new), encoding="utf-8")
        code, out, err = run(capsys, "render", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {bad}: line ")

    def test_ranks_over_the_degree_limit_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "ranks", "301", "301")
        assert code == 2
        assert out == ""
        assert err == "error: the 301 x 301 box has degree 90,601, over the limit of 90,000\n"

    def test_ranks_at_the_degree_limit(self, capsys):
        code, out, _ = run(capsys, "ranks", "1", "90000")
        assert code == 0
        assert out == "1\n" * 90001

    def test_identities_do_not_recurse(self, capsys):
        code, out, _ = run(capsys, "identities", "2000", "1")
        assert code == 0
        assert out.splitlines()[-1] == "PASS"

    def test_identities_over_element_limit_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "identities", "13", "13")
        assert code == 2
        assert out == ""
        assert err == "error: L(13,13) has more than 4,000,000 elements\n"


class TestParserBuiltOnce:
    ARGVS = [
        ("ranks", "3", "3"), ("--help",), ("frobnicate",), ("lattice", "2", "x"),
        ("scd", "--help"), ("scd",), ("ranks", "2", "2"), ("render", "--help"),
        ("scd", "lindstrom", "2"), ("ranks", "-1", "3"), ("identities", "2", "2"),
        ("lattice", "1", "2", "--coords", "bogus"), ("scd", "n2", "3"), ("ranks", "1", "1"),
    ]

    def test_cached_parser_answers_like_a_fresh_one(self, capsys):
        cached = [run(capsys, *argv) for argv in self.ARGVS]
        fresh = []
        for argv in self.ARGVS:
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert cached == fresh
        assert {code for code, _, _ in cached} == {0, 2}
        assert cli._build_parser() is cli._build_parser()

    def test_constructions_are_looked_up_when_called(self, monkeypatch, capsys):
        # a wrapper installed after the parser is built must still be called
        cli._build_parser()
        calls = []
        for name in ("lindstrom", "scd_n2"):
            def counting(m, original=getattr(cli, name), name=name):
                calls.append(name)
                return original(m)
            monkeypatch.setattr(cli, name, counting)
        assert run(capsys, "scd", "lindstrom", "3")[0] == 0
        assert run(capsys, "scd", "n2", "3")[0] == 0
        assert calls == ["lindstrom", "scd_n2"]

    def test_import_builds_no_parser(self):
        probe = ("import younglat.cli as cli; "
                 "print(cli._build_parser.cache_info().currsize)")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "0\n"

    def test_import_loads_no_code_generators(self):
        # dataclasses writes and execs source at class creation and loads
        # inspect with it; compared with the modules present before the
        # import, so a site hook that preloads either cannot fail this
        probe = ("import sys; before = set(sys.modules); import younglat.cli; "
                 "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "[]\n"


# valid files of three shapes, the decomposition of each shape at the same index
_POSETS = [serialize_poset(build_lattice(Shape(*shape))) for shape in ((2, 2), (3, 3), (2, 3))]
_DECOMPOSITIONS = [serialize_decomposition(d) for d in (scd_n2(2), lindstrom(3), lindstrom(2))]


class TestAnyFileContent:
    @settings(deadline=None)
    @given(st.integers(0, 2), st.data())
    def test_verify_and_render_exit_cleanly(self, tmp_path_factory, shape, data):
        files = tmp_path_factory.getbasetemp() / "any-file-content"
        files.mkdir(exist_ok=True)
        for name, valid in (("p.poset", _POSETS), ("d.scd", _DECOMPOSITIONS)):
            kind = data.draw(st.sampled_from(["bytes", "valid", "mutated"]))
            if kind == "bytes":
                raw = data.draw(st.binary(max_size=80))
            elif kind == "valid":
                raw = valid[shape].encode()
            else:
                raw = mutated_text(valid[shape], data).encode()
            (files / name).write_bytes(raw)
        p, d = str(files / "p.poset"), str(files / "d.scd")
        assert main(["scd", "verify", p, d]) in (0, 1, 2)
        assert main(["render", p, "--scd", d]) in (0, 1, 2)


# Any argv: drawn from the subcommand grammar, and any token may then be
# replaced by arbitrary text.  Numbers are 0-4 or at least 10**7, so every
# shape is tiny or refused by a limit; replacement text keeps that rule and
# names no path outside the working directory.  File arguments name "a" and
# "b", each missing, empty, arbitrary bytes or a valid file, or "gone",
# which is never there when a command starts.
_NUMBER = st.one_of(st.integers(0, 4), st.integers(10**7, 10**30)).map(str)
_FILE = st.sampled_from(["a", "b", "gone"])


def _keeps_the_rules(text):
    if "/" in text:
        return False
    try:
        value = int(text)
    except ValueError:
        return True
    return not 4 < value < 10**7


@st.composite
def _argvs(draw):
    def option(flag, values):
        return [flag, draw(values)] if draw(st.booleans()) else []

    number = lambda: draw(_NUMBER)  # noqa: E731
    command = draw(st.sampled_from(
        ["lattice", "ranks", "identities", "lindstrom", "n2", "brute", "verify", "render"]))
    if command == "lattice":
        argv = ["lattice", number(), number(),
                *option("--coords", st.sampled_from(["partition", "composition"])),
                *option("--out", _FILE)]
    elif command in ("ranks", "identities"):
        argv = [command, number(), number()]
    elif command in ("lindstrom", "n2"):
        argv = ["scd", command, number(), *option("--out", _FILE)]
    elif command == "brute":
        argv = ["scd", "brute", number(), number()]
    elif command == "verify":
        argv = ["scd", "verify", draw(_FILE), draw(_FILE)]
    else:
        argv = ["render", draw(_FILE), *option("--scd", _FILE),
                *option("--format", st.sampled_from(["dot", "svg"])),
                *option("--labels", st.sampled_from(["partition", "composition", "young"]))]
    for i in range(len(argv)):
        if draw(st.integers(0, 7)) == 0:
            argv[i] = draw(st.text(max_size=12).filter(_keeps_the_rules))
    if "brute" in argv:  # the last --budget wins, so every search is short
        argv += ["--budget", str(draw(st.integers(0, 10_000)))]
    return argv


_VALID_FILES = _POSETS + _DECOMPOSITIONS


class TestAnyArgv:
    @settings(deadline=1000, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_argvs(), st.data())
    def test_main_returns_a_documented_exit_code(self, tmp_path, monkeypatch, capsys,
                                                 argv, data):
        monkeypatch.chdir(tmp_path)
        for name in ("a", "b", "gone"):
            Path(name).unlink(missing_ok=True)
        for name in ("a", "b"):
            kind = data.draw(st.sampled_from(["missing", "empty", "bytes", "valid"]))
            if kind == "empty":
                Path(name).write_bytes(b"")
            elif kind == "bytes":
                Path(name).write_bytes(data.draw(st.binary(max_size=80)))
            elif kind == "valid":
                Path(name).write_text(data.draw(st.sampled_from(_VALID_FILES)))
        assert main(argv) in (0, 1, 2)
        capsys.readouterr()
