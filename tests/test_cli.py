"""End-to-end checks of the command-line front end."""

from __future__ import annotations

import argparse
import ast
import inspect
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from steen import cli
from steen.catalogue import MODULE_NAMES, get_module
from steen.cli import build_parser, main
from steen.config import S_MAX_DEFAULT, Config, config_problems, from_env
from steen.modfile import load, parse_algebra
from steen.resolution import chart_stem_max, emit_chart, ext_chart, minimal_resolution


GOOD_MODULE = """\
module tiny over A(1)
gen x0 0
gen x1 1
sq 1 x0 = x1
"""

# Sq^1 Sq^1 = 0 is violated, so the file parses but the module is bad
BROKEN_MODULE = """\
module broken over A(1)
gen x0 0
gen x1 1
gen x2 2
sq 1 x0 = x1
sq 1 x1 = x2
"""


def test_list_names_the_catalogue(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "joker" in out and "joker(2)1" in out and "a1" in out


def test_show_prints_the_joker_table(capsys):
    assert main(["show", "joker"]) == 0
    out = capsys.readouterr().out
    assert "module joker over A(1)" in out
    assert out.count("gen ") == 5
    assert "sq 2 x1 = x3" in out


def test_show_unknown_name_is_a_usage_error(capsys):
    assert main(["show", "nosuch"]) == 2
    assert "unknown module" in capsys.readouterr().err


def test_validate_round_trip(tmp_path, capsys):
    path = tmp_path / "tiny.mod"
    path.write_text(GOOD_MODULE)
    assert main(["validate", str(path)]) == 0
    assert "tiny: ok" in capsys.readouterr().out


def test_validate_a_wide_module_over_a(tmp_path, capsys):
    # span 60 over A: the check takes Sq(2^e) against each monomial, not
    # every pair of monomials
    path = tmp_path / "two.mod"
    path.write_text("module two over A\ngen a 0\ngen b 60\n")
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "two: ok\n"


@pytest.mark.parametrize("command", ["validate", "show"])
def test_a_module_over_a_wider_than_the_degree_cap_is_a_usage_error(tmp_path, capsys, command):
    # classes in degrees 0, 1 and 65 make no double, so the base spans 65,
    # and A has 5,241 monomials in degrees 1..64 and more up to 65
    path = tmp_path / "m.mod"
    path.write_text("module m over A\ngen a 0\ngen b 1\ngen c 65\nsq 1 a = b\n")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "steen: m: span 65 over A needs more of its basis than A has up to"
        " DEGREE_CAP = 64 (5241 monomials)\n"
    )


def test_a_double_over_a_is_measured_by_its_base(tmp_path, capsys):
    # classes in degrees 0 and 100 are a double with base span 100 / 4 = 25
    path = tmp_path / "m.mod"
    path.write_text("module m over A\ngen a 0\ngen b 100\n")
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr() == ("m: ok\n", "")


@pytest.mark.parametrize("command", ["validate", "show"])
def test_a_base_that_needs_more_basis_than_a_is_a_usage_error(tmp_path, capsys, command):
    # over A(12) the base reaches degree 101, past the 5,241 monomials A has
    # in degrees 1..DEGREE_CAP; A(12)'s top class does not bound it in time
    path = tmp_path / "m.mod"
    path.write_text("module m over A(12)\ngen a 0\ngen b 101\n")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "steen: m: span 101 over A(12) needs more of its basis than A has up to"
        " DEGREE_CAP = 64 (5241 monomials)\n"
    )


def test_a_wide_module_over_a3_is_never_refused(tmp_path, capsys):
    # A(3) has 1,023 monomials in positive degrees, fewer than the budget
    path = tmp_path / "m.mod"
    path.write_text("module m over A(3)\ngen a 0\ngen b 71\n")
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "m: ok\n"


def test_validate_reports_problems(tmp_path, capsys):
    path = tmp_path / "broken.mod"
    path.write_text(BROKEN_MODULE)
    assert main(["validate", str(path)]) == 1
    assert "Sq" in capsys.readouterr().out


# the joker from its Sq^1 and Sq^2 edges alone
JOKER_GENERATORS = """\
module joker over A(1)
gen x0 0
gen x1 1
gen x2 2
gen x3 3
gen x4 4
sq 1 x0 = x1
sq 1 x3 = x4
sq 2 x0 = x2
sq 2 x1 = x3
sq 2 x2 = x4
"""


def test_composite_lines_are_derived_when_omitted(tmp_path, capsys):
    path = tmp_path / "joker.mod"
    path.write_text(JOKER_GENERATORS)
    assert main(["validate", str(path)]) == 0
    assert "joker: ok" in capsys.readouterr().out
    assert main(["show", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == JOKER_GENERATORS + "sq 3 x1 = x4\n"
    assert main(["show", "joker"]) == 0
    assert capsys.readouterr().out == out


def test_validate_checks_composite_lines(tmp_path, capsys):
    # Sq^3 x0 = Sq^1 Sq^2 x0 = Sq^1 x2 = 0, so this line is a false claim
    path = tmp_path / "joker.mod"
    path.write_text(JOKER_GENERATORS + "sq 3 x0 = x3\nsq 3 x1 = x4\n")
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "Sq^3 on x0 is ['x3'] but the generator expansion gives []" in out
    # the same false claim on a double is reported in the double's own degrees
    fixture = Path(__file__).parent / "fixtures" / "joker_3_.mod"
    path.write_text(fixture.read_text() + "sq 12 x0 = x3\n")
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "joker(3): Sq^12 on x0 is ['x3'] but the generator expansion gives []" in out


def test_commands_reject_an_invalid_module_file(tmp_path, capsys):
    path = tmp_path / "joker.mod"
    path.write_text(JOKER_GENERATORS + "sq 3 x0 = x3\n")
    for command in (["show", str(path)], ["dual", str(path)]):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Sq^3" in captured.err


def test_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "junk.mod"
    path.write_text("module x over A(1)\nwhat is this\n")
    assert main(["validate", str(path)]) == 2
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, message",
    [
        ('{"name": 3}', "missing key 'module'"),
        ('[1, 2]', "expected an object"),
        ('{"module": 3, "algebra": "A(1)", "gens": [], "sq": {}}', "'module' must be"),
        ('{"module": "m", "algebra": "A(1)", "gens": [["a", "0"]], "sq": {}}', "gens entry"),
        ('{"module": "m", "algebra": "A(1)", "gens": [["a", 0]], "sq": {"1": {"b": []}}}',
         "unknown id b"),
        ('{"module": "m", "algebra": "A(1)", "gens": [["a", 0]], "sq": {"x": {}}}',
         "sq entry 'x'"),
        # a non-ASCII digit is no integer, so the key reads like any other word
        ('{"module": "m", "algebra": "A(1)", "gens": [["a", 0]], "sq": {"\\u0662": {}}}',
         "sq entry '\u0662'"),
        ('{"module": "m", "algebra": "A(1)", "gens": [["a", 0]], "sq": {"1": {"a": "a"}}}',
         "list of ids"),
        ('{"module": "m", "algebra": "A(1)", "gens": [["a", 0]], "sq": {"0": {"a": ["a"]}}}',
         "k must be at least 1"),
        ('{"module": "m", "algebra": "A(1)", "gens": [["a", 0], ["b", 1]], '
         '"sq": {"1": {"a": ["b"]}, "01": {}}}',
         "sq key '01' must be written '1'"),
        ('{"module": "m", "algebra": "A(1)", "gens": [["a", 0], ["b", 1]], '
         '"sq": {"1": {"a": ["b"]}, "1": {}}}',
         "repeated key '1'"),
        ('{"module": "m", "algebra": "A(1)", "gens": [], "sq": {}, "name": "m"}',
         "unknown key 'name'"),
    ],
)
def test_validate_malformed_json_is_a_usage_error(tmp_path, capsys, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "steen: json: nested too deeply\n"


@pytest.mark.parametrize("command", ["validate", "show"])
def test_a_file_that_is_not_utf8_names_its_path(tmp_path, capsys, command):
    path = tmp_path / "m.mod"
    path.write_bytes(b"\xffmodule m over A\n")
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"steen: cannot read {path}: not UTF-8 (invalid start byte)\n"


@pytest.mark.parametrize("n", [100_000, 99_999_999_999])
@pytest.mark.parametrize(
    "body",
    ["gen a 0\ngen b 1\nsq 1 a = b\n", "gen a 0\ngen b 0\n", "gen a 0\ngen b 2\nsq 2 a = b\n"],
)
@pytest.mark.parametrize("command", ["validate", "show"])
def test_a_file_over_a_huge_subalgebra_is_read(tmp_path, capsys, n, body, command):
    # the top degree and the profile of A(n) cost nothing like 2^n
    path = tmp_path / "m.mod"
    path.write_text(f"module m over A({n})\n" + body)
    assert main([command, str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == ("m: ok\n" if command == "validate" else path.read_text())


@pytest.mark.parametrize("command", ["validate", "show", "dual"])
def test_unreadable_path_is_a_usage_error(tmp_path, capsys, command):
    assert main([command, str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"steen: cannot read {tmp_path}: Is a directory\n"


@pytest.mark.parametrize(
    "argv",
    [["show", ""], ["dual", ""], ["double", "", "1"], ["tensor", "joker", ""],
     ["resolve", ""], ["chart", ""]],
)
def test_empty_module_name_is_a_usage_error(capsys, argv):
    # Path('') is the working directory, which is not a module file
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "steen: unknown module '': not a catalogue name or a file\n"
    )


def test_validate_an_empty_path_is_a_usage_error(capsys):
    assert main(["validate", ""]) == 2
    assert capsys.readouterr().err == "steen: no such file: \n"


def test_dual_and_double_and_tensor(capsys):
    assert main(["dual", "joker"]) == 0
    assert "module D(joker)" in capsys.readouterr().out
    assert main(["double", "joker", "1"]) == 0
    assert "over A(2)" in capsys.readouterr().out
    assert main(["tensor", "w2", "w0"]) == 0
    assert "gen x0x0 0" in capsys.readouterr().out


def test_double_takes_its_tables_from_the_base(capsys):
    assert main(["double", "joker", "30"]) == 0
    assert "sq 1073741824 x0 = x1" in capsys.readouterr().out.splitlines()


def test_double_rejects_negative_k(capsys):
    assert main(["double", "joker", "-1"]) == 2
    assert "nonnegative" in capsys.readouterr().err


def test_double_takes_k_up_to_its_bound(capsys):
    assert main(["double", "joker", "4096"]) == 0
    out = capsys.readouterr().out
    assert f"gen x1 {1 << 4096}" in out.splitlines()
    assert main(["double", "joker", "4097"]) == 2
    assert capsys.readouterr().err == "steen: doubling exponent must be at most 4096\n"


def test_double_refuses_a_huge_k_in_one_line():
    # in a child under a 1 GB address-space limit: a double that shifted the
    # degrees first would ask for gigabytes per degree
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "from steen.cli import main; sys.exit(main())"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", code, "double", "joker", "99999999999"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "steen: doubling exponent must be at most 4096\n"


def test_tensor_of_files_whose_ids_concatenate_alike(tmp_path, capsys):
    (tmp_path / "l.mod").write_text("module l over A(1)\ngen a 0\ngen ab 1\nsq 1 a = ab\n")
    (tmp_path / "r.mod").write_text("module r over A(1)\ngen bc 0\ngen c 2\nsq 2 bc = c\n")
    assert main(["tensor", str(tmp_path / "l.mod"), str(tmp_path / "r.mod")]) == 0
    out = capsys.readouterr().out
    assert "gen x1_0 1" in out.splitlines()
    (tmp_path / "t.mod").write_text(out)
    assert main(["show", str(tmp_path / "t.mod")]) == 0
    assert capsys.readouterr().out == out


def test_resolve_prints_differentials(capsys):
    assert main(["resolve", "joker", "--smax", "3", "--tmax", "12"]) == 0
    out = capsys.readouterr().out
    assert "d 1 g1_0 = Sq(3) g0_0" in out
    assert "d 3 g3_2 = Sq(2) g2_1" in out


def test_resolve_bound_guard(capsys):
    assert main(["resolve", "joker", "--smax", "99", "--tmax", "12"]) == 2
    assert "s_max" in capsys.readouterr().err


def test_default_tmax_is_40_and_the_limit_is_64(capsys):
    assert main(["chart", "joker(3)"]) == 0
    default = capsys.readouterr().out
    assert main(["chart", "joker(3)", "--tmax", "40"]) == 0
    assert capsys.readouterr().out == default
    assert main(["resolve", "joker", "--tmax", "65"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "64" in err


def test_resolve_a_module_in_negative_degrees(tmp_path, capsys):
    assert main(["dual", "joker0"]) == 0
    path = tmp_path / "d.txt"
    path.write_text(capsys.readouterr().out)
    assert main(["resolve", str(path), "--smax", "2", "--tmax", "20"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "d 0 g0_0 = x4'" in captured.out


def test_resolve_algebra_mismatch(capsys):
    assert main(["resolve", "joker", "--algebra", "A(2)", "--smax", "2", "--tmax", "8"]) == 2
    assert "not a module over" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["chart", "resolve"])
def test_algebra_option_takes_ascii_digits_only(capsys, command):
    assert main([command, "joker", "--algebra", "A(١)"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "steen: --algebra: bad algebra 'A(١)'; use A or A(n)\n")


def test_a_file_with_a_non_ascii_degree_is_refused_on_its_line(tmp_path, capsys):
    path = tmp_path / "m.mod"
    path.write_text("module m over A(1)\ngen a 0\ngen b ٢\nsq 2 a = b\n", encoding="utf-8")
    for command in ("validate", "show"):
        assert main([command, str(path)]) == 2
        assert capsys.readouterr() == ("", "steen: line 3: bad degree '٢'\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["chart", "joker", "--algebra", "A(2)"],
        ["chart", "joker(3)", "--algebra", "A"],
        ["resolve", "joker(3)", "--algebra", "A(4)"],
    ],
)
def test_an_algebra_the_module_cannot_be_read_over_is_one_line(capsys, argv):
    assert main(argv) == 2
    module, algebra = argv[1], argv[3]
    assert capsys.readouterr() == ("", f"steen: {module} is not a module over {algebra}\n")


@pytest.mark.parametrize("argv", [["joker(3)", "A(2)"], ["joker(4)", "A(3)"], ["joker(2)", "A(1)"]])
def test_chart_restricts_to_a_smaller_subalgebra(capsys, argv):
    module, algebra = argv
    assert main(["chart", module, "--algebra", algebra, "--smax", "3", "--tmax", "24"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines()[-1].split()[:2] == ["0", "1"]


def test_resolve_restricts_whole_algebra_modules(capsys):
    assert main(["resolve", "joker0", "--algebra", "A(1)", "--smax", "2", "--tmax", "8"]) == 0
    assert "d 0 g0_0" in capsys.readouterr().out


BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"

# (module, --algebra, --smax, --tmax): the README tour's charts and the
# benchmark's; None leaves the option to its default
TOUR_AND_BENCH_CHARTS = [
    ("joker", None, 4, 14),
    ("joker0", "A", 6, 20),
    ("joker(3)", "A(2)", None, None),
    (str(BENCH_INPUTS / "sphere.mod"), "A", 16, 40),
    ("joker(3)", None, None, None),
    ("joker(4)", None, 3, 40),
]


@lru_cache(maxsize=None)
def _full_window_chart(module, algebra, s_max, t_max):
    M = get_module(module) if module in MODULE_NAMES else load(module)
    over = M.algebra if algebra is None else parse_algebra(algebra, "--algebra")
    s_max = Config().s_max if s_max is None else s_max
    t_max = Config().t_max if t_max is None else t_max
    return ext_chart(minimal_resolution(over, M, s_max, t_max))


@pytest.mark.parametrize("format", ["text", "svg"])
@pytest.mark.parametrize(
    "chart", TOUR_AND_BENCH_CHARTS, ids=lambda c: "-".join(Path(str(v)).name for v in c)
)
def test_chart_prints_the_full_window_chart(chart, format, tmp_path, monkeypatch, capsysbinary):
    """The text grid is resolved only through the stems it prints, the SVG
    over the whole window; both give the bytes of the full window's chart."""
    for key in [k for k in os.environ if k.startswith("STEEN_")]:
        monkeypatch.delenv(key)
    module, algebra, s_max, t_max = chart
    argv = ["chart", module, "--format", format]
    if algebra is not None:
        argv += ["--algebra", algebra]
    if s_max is not None:
        argv += ["--smax", str(s_max), "--tmax", str(t_max)]
    want = emit_chart(_full_window_chart(*chart), format)
    assert main(argv) == 0
    assert capsysbinary.readouterr() == (want, b"")
    assert main(argv + ["--out", str(tmp_path / "chart")]) == 0
    assert (tmp_path / "chart").read_bytes() == want


def test_default_smax_is_its_own_constant():
    assert Config().s_max == S_MAX_DEFAULT == 16
    assert chart_stem_max(Config().s_max, Config().t_max) == 24


def test_chart_text_to_stdout(capsys):
    assert main(["chart", "joker", "--smax", "3", "--tmax", "10"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == [str(i) for i in range(8)]


def test_chart_svg_to_stdout(capsys):
    assert main(["chart", "joker", "--smax", "3", "--tmax", "10", "--format", "svg"]) == 0
    assert capsys.readouterr().out.startswith("<svg")


def test_chart_out_lands_in_output_dir(tmp_path, capsys):
    target = tmp_path / "charts"
    rc = main(
        ["--output-dir", str(target), "chart", "joker",
         "--smax", "3", "--tmax", "10", "--out", "j.txt"]
    )
    assert rc == 0
    assert (target / "j.txt").exists()
    assert str(target / "j.txt") in capsys.readouterr().out


def test_unwritable_chart_target_is_a_usage_error(tmp_path, capsys):
    rc = main(["chart", "joker", "--smax", "3", "--tmax", "10", "--out", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"steen: cannot write {tmp_path}: Is a directory\n"


@pytest.mark.parametrize(
    "output_dir, out",
    [("", "plainfile/x.svg"), ("", "plainfile/sub/x.svg"), ("plainfile", "x.svg")],
)
def test_chart_target_under_a_plain_file_is_a_usage_error(tmp_path, capsys, output_dir, out):
    (tmp_path / "plainfile").write_text("")
    rc = main(["--output-dir", str(tmp_path / output_dir), "chart", "joker",
               "--smax", "2", "--tmax", "8", "--out", out])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"steen: cannot write {tmp_path / output_dir / out}: Not a directory\n"


def test_output_dir_flag_beats_environment(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    monkeypatch.setenv("STEEN_OUTPUT_DIR", str(env_dir))
    rc = main(
        ["--output-dir", str(flag_dir), "chart", "joker",
         "--smax", "2", "--tmax", "8", "--out", "j.txt"]
    )
    assert rc == 0
    capsys.readouterr()
    assert (flag_dir / "j.txt").exists()
    assert not env_dir.exists()


def test_environment_output_dir_is_used(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "env"
    monkeypatch.setenv("STEEN_OUTPUT_DIR", str(env_dir))
    rc = main(["chart", "joker", "--smax", "2", "--tmax", "8", "--out", "j.txt"])
    assert rc == 0
    capsys.readouterr()
    assert (env_dir / "j.txt").exists()


def test_bad_environment_integer_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("STEEN_T_MAX", "lots")
    assert main(["list"]) == 2
    assert "STEEN_T_MAX" in capsys.readouterr().err


@pytest.mark.parametrize("raw", [" 12 ", "١٢", " ١٢ ", "1_2", "+12", "12.0", ""])
def test_environment_integers_are_ascii_decimal(monkeypatch, capsys, raw):
    monkeypatch.setenv("STEEN_T_MAX", raw)
    assert main(["list"]) == 2
    assert capsys.readouterr() == ("", f"steen: STEEN_T_MAX: expected an integer, got {raw!r}\n")


@pytest.mark.parametrize(
    "argv, where",
    [
        (["chart", "joker", "--tmax", "10", "--smax", "٢"], "--smax"),
        (["chart", "joker", "--smax", "2", "--tmax", "1_0"], "--tmax"),
        (["resolve", "joker", "--tmax", " 8"], "--tmax"),
        (["double", "joker", "١"], "k"),
        (["double", "joker", "+1"], "k"),
        (["unstable", "bso3", "--cap", "６"], "--cap"),
        (["obstruction", "٤"], "n"),
    ],
)
def test_integer_arguments_are_ascii_decimal(capsys, argv, where):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith(
        f"error: argument {where}: invalid integer value: {argv[-1]!r}"
    )


def test_negative_integer_arguments_still_reach_the_guards(capsys):
    assert main(["resolve", "joker", "--smax", "-1"]) == 2
    assert capsys.readouterr().err == "steen: s_max must be between 0 and 16, got -1\n"


@pytest.mark.parametrize("variable", ["STEEN_TMAX", "STEEN_DEGREE_CAP"])
def test_unknown_environment_variable_is_a_usage_error(monkeypatch, capsys, variable):
    monkeypatch.setenv(variable, "5")
    assert main(["resolve", "joker", "--smax", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"steen: {variable}: unknown setting")
    assert err.count("\n") == 1


def test_environment_guard_violation(monkeypatch, capsys):
    monkeypatch.setenv("STEEN_T_MAX", "99")
    assert main(["list"]) == 2
    assert "t_max" in capsys.readouterr().err


def test_flag_overrides_bad_environment_bound(monkeypatch, capsys):
    monkeypatch.setenv("STEEN_S_MAX", "99")
    rc = main(["resolve", "joker", "--smax", "2", "--tmax", "8"])
    capsys.readouterr()
    assert rc == 0


def test_unstable_bso3_verdicts(capsys):
    assert main(["unstable", "bso3"]) == 0
    out = capsys.readouterr().out
    assert "matches joker0[2] on degrees 2..6: yes" in out
    assert "matches joker1[2] on degrees 2..6: no" in out


def test_unstable_bsu3_verdicts(capsys):
    assert main(["unstable", "bsu3"]) == 0
    out = capsys.readouterr().out
    assert "matches joker(2)0[4] on degrees 4..12: yes" in out
    assert "matches joker(2)1[4] on degrees 4..12: no" in out


@pytest.mark.parametrize(
    "cap, compared", [([], True), (["--cap", "6"], True), (["--cap", "5"], False)]
)
def test_unstable_compares_at_the_cube_degree_only(capsys, cap, compared):
    assert main(["unstable", "bso3", *cap]) == 0
    verdicts = [line for line in capsys.readouterr().out.splitlines() if "matches" in line]
    expected = [
        "matches joker0[2] on degrees 2..6: yes",
        "matches joker1[2] on degrees 2..6: no",
    ]
    assert verdicts == (expected if compared else [])


def test_unstable_cap_zero_is_out_of_range(capsys):
    assert main(["unstable", "bso3", "--cap", "0"]) == 2
    assert capsys.readouterr().err == "steen: cap 0 outside 1..64\n"


def test_unstable_unclosed_cap_reports_witness(capsys):
    assert main(["unstable", "bso3", "--cap", "8"]) == 2
    assert "leaves the relation ideal at w2^2*w3" in capsys.readouterr().err


def test_obstruction_report_and_records(capsys):
    assert main(["obstruction", "4"]) == 0
    out = capsys.readouterr().out
    assert "conclusion: NonRealizable" in out
    assert "4 0 3 16 1 8 vanishes" in out


def test_obstruction_small_n_is_a_precondition_error(capsys):
    assert main(["obstruction", "3"]) == 2
    assert "k >= 3" in capsys.readouterr().err


def test_obstruction_large_n_is_guarded(capsys):
    assert main(["obstruction", "13"]) == 2
    assert "12" in capsys.readouterr().err


def test_verify_suite_ledger(capsys):
    assert main(["verify-suite", "paper"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("PASS") for line in lines) == 13
    assert not any(line.startswith("FAIL") for line in lines)
    assert lines[-1] == "verify-suite: all criteria pass"


def test_verify_suite_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify-suite", "other"])
    assert exc.value.code == 2


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == "steen: error: the following arguments are required: command"


def test_every_command_sets_its_handler():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(sub.choices) == 11
    for name, command in sub.choices.items():
        # the smallest argv: each positional gets its first choice, or "1"
        argv = [name] + [
            next(iter(a.choices)) if a.choices else "1"
            for a in command._actions
            if not a.option_strings
        ]
        assert callable(parser.parse_args(argv).run), name


def test_main_does_not_branch_on_the_command():
    tree = ast.parse(inspect.getsource(cli.main))
    branches = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        for side in ast.walk(node)
        if isinstance(side, ast.Attribute) and side.attr == "command"
    ]
    assert branches == []


def test_config_env_overrides_and_guards(monkeypatch):
    monkeypatch.setenv("STEEN_FORMAT", "svg")
    cfg = from_env()
    assert cfg.format == "svg"
    assert config_problems(cfg) == []
    assert any("format" in p for p in config_problems(Config(format="png")))


def test_a_bad_format_setting_names_the_chart_formats(monkeypatch, capsys):
    monkeypatch.setenv("STEEN_FORMAT", "png")
    assert main(["chart", "joker"]) == 2
    assert capsys.readouterr().err == "steen: format must be 'text' or 'svg', got 'png'\n"


@pytest.mark.parametrize(
    "argv, choices",
    [
        (["chart", "joker", "--format", "png"], ["text", "svg"]),
        (["unstable", "bso4"], ["bso3", "bsu3"]),
    ],
)
def test_an_invalid_choice_lists_the_choices(capsys, argv, choices):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert f"invalid choice: {argv[-1]!r}" in last
    listed = last.split("choose from ")[1].rstrip(")")
    assert [c.strip("'") for c in listed.split(", ")] == choices


@pytest.mark.parametrize(
    "command, expected",
    [("validate", "gap: ok"), ("show", "gen y 1000000000000"), ("dual", "gen y' -1000000000000")],
)
def test_a_wide_gap_over_a_finite_subalgebra_is_cheap(tmp_path, capsys, command, expected):
    # A(1) is zero above degree 6, so neither validation nor the tables walk
    # the 10^12 degrees between the two classes
    path = tmp_path / "gap.mod"
    path.write_text("module gap over A(1)\ngen x 0\ngen y 1000000000000\n")
    assert main([command, str(path)]) == 0
    assert expected in capsys.readouterr().out
