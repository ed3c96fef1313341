import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import mutated_text
from younglat import cli
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

    def test_brute_budget_exhaustion(self, capsys):
        code, out, _ = run(capsys, "scd", "brute", "4", "3", "--budget", "2")
        assert code == 1
        assert out.startswith("budget-exhausted")

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


class TestErrorPaths:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_subcommand(self, capsys):
        assert run(capsys, "scd")[0] == 2

    def test_negative_argument(self, capsys):
        assert run(capsys, "ranks", "-1", "3")[0] == 2

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
        # a poset header's fields are compared with the writer's, after the
        # line count: the one-line poset file fails on its missing second line
        expected = {
            "height=\u00b2": f"{poset_file}: line 2: expected 13 lines, got 1",
            "chains=\u00b2": f"{scd_file}: line 1: bad header field: {field!r}",
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
