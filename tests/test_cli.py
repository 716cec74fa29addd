"""CLI surface: commands, exit codes, JSON schemas, file round-trips."""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from bohrad import __version__
from bohrad import cli, radius
from bohrad.cli import build_parser, load_suite_config, main, read_coefficients, write_coefficients
from bohrad.radius import RadiusQuery
from bohrad.series import CoefficientSeries, DomainParams
from bohrad.weights import BetaCesaro
from oracles import mp_root

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "bohrad" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


_PROBE = """
import json, sys


class RefuseScipy:
    attempts = []

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            self.attempts.append(name)
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, RefuseScipy())
import numpy
bare = {m for m in sys.modules if m.startswith("numpy.fft")}
import bohrad.cli
print(sorted(m for m in sys.modules if m.startswith("numpy.fft") and m not in bare))
config = {"seed": 11, "samples_per_cell": 2, "gamma_grid": [0.0], "p_grid": [1.0], "tolerance": 1e-9,
          "families": [{"name": "power-tail"}, {"name": "bernardi", "params": {"m": 1, "delta": 1.0}}]}
with open("config.json", "w") as fh:
    json.dump(config, fh)
commands = [
    ["radius", "--family", "power-tail", "--gamma", "0"],
    ["radius", "--family", "beta-cesaro", "--beta", "2000", "--gamma", "0"],
    ["table", "--family", "bernardi", "--m", "1,2", "--gamma", "0,0.5", "--format", "jsonl"],
    ["verify", "--fn", "blaschke:7", "--family", "alpha-cesaro", "--alpha", "0.5", "--gamma", "0.25"],
    ["verify", "--fn", "extremal:0.999", "--family", "power-tail", "--gamma", "0", "--r-beyond", "0.2"],
    ["operator", "--beta-cesaro", "2", "bound", "--r", "0.5"],
    ["operator", "--beta-cesaro", "1", "radius", "--gamma", "0"],
    ["operator", "--alpha-cesaro", "0", "apply", "--coeffs", "in.txt", "--out", "out.txt"],
    ["operator", "--bernardi", "1", "0.5", "apply", "--coeffs", "in.txt", "--out", "out.txt"],
    ["suite", "--config", "config.json"],
    ["suite", "--kind", "sharpness", "--config", "config.json"],
]
print([bohrad.cli.main(argv) for argv in commands], RefuseScipy.attempts, file=sys.stderr)
"""


def test_import_does_not_load_scipy_signal(tmp_path):
    # scipy is not a dependency: with every scipy import refused (a
    # sys.meta_path finder that records each attempt), every command runs to
    # its usual exit and none tries to import it.  numpy 2 loads numpy.fft on
    # first use, and only the Blaschke kernel uses it: importing bohrad.cli
    # must load no numpy.fft module that a bare "import numpy" does not
    # (numpy 1.x loads numpy.fft with numpy itself)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    (tmp_path / "in.txt").write_text("0 0\n0.25 0.1\n0.5 -0.2\n")
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True,
                          check=True, cwd=tmp_path)
    assert proc.stdout.splitlines()[0] == "[]"
    # extremal:0.999 fails past the radius (1)
    assert proc.stderr.splitlines()[-1] == "[0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0] []"


def _command_options(parser, name):
    """The option strings (a positional by its dest) of subcommand name, in the order they were added."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [s for a in sub.choices[name]._actions for s in (a.option_strings or [a.dest])]


_FAMILY_OPTIONS = ["--family", "--N", "--beta", "--alpha", "--m", "--delta"]
# every command's options in the order the parser has always added them, so
# each --help lists them as before
_OPTIONS = {
    "radius": [*_FAMILY_OPTIONS, "--gamma", "--p", "--tol"],
    "table": [*_FAMILY_OPTIONS, "--gamma", "--p", "--tol", "--format"],
    "verify": [*_FAMILY_OPTIONS, "--fn", "--gamma", "--p", "--r-beyond", "--grid-points", "--order", "--tol",
               "--tolerance"],
    "operator": ["--beta-cesaro", "--alpha-cesaro", "--bernardi", "action", "--gamma", "--p", "--r", "--coeffs",
                 "--out", "--tol"],
    "suite": ["--config", "--kind", "--out"],
}
_USAGE = "usage: bohrad [-h] [--version] {radius,table,verify,operator,suite} ...\n"


class TestParser:
    def test_full_parser_builds_every_command_with_its_options(self):
        parser = build_parser()
        assert {name: _command_options(parser, name) for name in _OPTIONS} == {
            name: ["-h", "--help", *options] for name, options in _OPTIONS.items()
        }

    @pytest.mark.parametrize("name", list(_OPTIONS))
    def test_command_help(self, capsys, name):
        code, out, err = run_cli(capsys, name, "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: bohrad {name} [-h]")
        assert all(option in out for option in _OPTIONS[name] if option.startswith("-"))

    def test_top_level_help(self, capsys):
        code, out, err = run_cli(capsys, "--help")
        assert (code, err) == (0, "")
        assert out.startswith(_USAGE + "\nSharp generalized Bohr radii on shifted disks, with operator radii.\n")
        assert "compute the sharp radius for a weight family" in out
        assert "run the verification suite from a JSON config" in out

    def test_no_arguments(self, capsys):
        assert run_cli(capsys) == (2, "", _USAGE + "bohrad: error: the following arguments are required: subcommand\n")

    def test_unknown_command(self, capsys):
        code, out, err = run_cli(capsys, "mystery", "--gamma", "0")
        assert (code, out) == (2, "")
        assert err.startswith(_USAGE + "bohrad: error: argument subcommand: invalid choice: 'mystery' (choose from ")
        assert all(name in err for name in _OPTIONS)

    def test_unrecognized_option(self, capsys):
        code, out, err = run_cli(capsys, "radius", "--family", "even", "--gamma", "0", "--bogus", "1")
        assert (code, out) == (2, "")
        assert err == _USAGE + "bohrad: error: unrecognized arguments: --bogus 1\n"

    def test_argv_defaults_to_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["bohrad", "radius", "--family", "power-tail", "--gamma", "0"])
        assert main() == 0
        assert json.loads(capsys.readouterr().out)["radius"] == pytest.approx(1.0 / 3.0, abs=1e-9)


_EVEN = ["--family", "even", "--gamma", "0"]
# argv kinds, each with its reference's exit code, stdout and stderr (see
# TestOwnParser): "{tmp}" is replaced by a directory holding small.json and in.txt
_ARGV_CORPUS = [
    # valid calls
    ["radius", "--family", "power-tail", "--gamma", "0"],
    ["radius", "--family", "bernardi", "--m", "1", "--delta", "-0.5", "--gamma", "0.25", "--p", "2"],
    ["table", "--family", "even", "--gamma", "0:0.2:0.1", "--format", "jsonl"],
    ["verify", "--fn", "constant:0.5", *_EVEN],
    ["operator", "--beta-cesaro", "2", "bound", "--r", "0.5"],
    ["operator", "--alpha-cesaro", "-5e-1", "radius"],
    ["operator", "--bernardi", "1", "0.5", "apply", "--coeffs", "{tmp}/in.txt", "--out", "{tmp}/out.txt"],
    ["suite", "--kind", "sharpness", "--config", "{tmp}/small.json"],
    # help of each command
    *([name, "-h"] for name in _OPTIONS),
    # missing arguments
    ["radius", "--family", "even"],
    ["verify", *_EVEN],
    ["operator"],
    # invalid arguments
    ["radius", "--family", "nope", "--gamma", "0"],
    ["radius", "--family", "even", "--gamma", "x"],
    ["suite", "--kind", "x"],
    ["operator", "--beta-cesaro", "2", "shrink"],
    ["radius", "--family", "even", "--gamma", "0", "--p", "--gamma", "0"],
    ["radius", "--family", "power-tail", "--N", "1.5", "--gamma", "0"],
    ["radius", "--family", "power-tail", "--beta", "1", "--gamma", "0"],
    # unrecognized arguments
    ["radius", *_EVEN, "--bogus", "1"],
    ["radius", *_EVEN, "extra"],
    ["operator", "radius", "radius", "--beta-cesaro", "2"],
    ["radius", *_EVEN, "--version"],
    ["radius", *_EVEN, "--=x"],
    # "--"
    ["radius", *_EVEN, "--"],
    ["radius", *_EVEN, "--", "x"],
    ["radius", "--", *_EVEN],
    ["radius", *_EVEN, "--", "--=x"],
    ["operator", "--beta-cesaro", "2", "--", "radius"],
    # negative values
    ["radius", "--family", "alpha-cesaro", "--alpha=-5e-1", "--gamma", "0"],
    ["verify", "--fn", "constant:0", *_EVEN, "--tolerance", "-inf"],
    ["radius", "--family", "even", "--gamma", "-0.5"],
    # no command first
    ["--version", "radius"],
    ["-h", "radius"],
    ["mystery", "--gamma", "0"],
    [],
]


class TestOwnParser:
    """A call that starts with a command is parsed by that command's parser alone."""

    @staticmethod
    def _argv(argv, tmp_path):
        (tmp_path / "small.json").write_text(json.dumps(
            {"seed": 1, "samples_per_cell": 1, "gamma_grid": [0.0], "p_grid": [1.0], "tolerance": 1e-9,
             "families": [{"name": "power-tail"}]}))
        (tmp_path / "in.txt").write_text("0 0\n0.25 0.1\n")
        return [a.replace("{tmp}", str(tmp_path)) for a in argv]

    @pytest.mark.parametrize("argv", _ARGV_CORPUS, ids=" ".join)
    def test_output_is_the_full_parsers(self, capsys, monkeypatch, tmp_path, argv):
        argv = self._argv(argv, tmp_path)
        got = run_cli(capsys, *argv)
        monkeypatch.setattr(cli, "_parse_args", lambda argv: build_parser().parse_args(argv))
        assert got == run_cli(capsys, *argv)

    def test_valid_call_builds_no_full_parser(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("build_parser was called")

        monkeypatch.setattr(cli, "build_parser", refuse)
        code, out, err = run_cli(capsys, "radius", "--family", "power-tail", "--gamma", "0")
        assert (code, err) == (0, "")
        assert json.loads(out)["radius"] == pytest.approx(1.0 / 3.0, abs=1e-9)


class TestRadiusCommand:
    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_is_usage_error(self, capsys, tol, monkeypatch):
        # refused by minimal_root before any evaluation; an infinite tol once
        # solved and failed only when the result was rendered
        monkeypatch.setattr(radius, "_gap", None)
        code, out, err = run_cli(capsys, "radius", "--family", "power-tail", "--gamma", "0", "--tol", tol)
        assert code == 2 and out == ""
        assert err == "error: tol must be positive and finite\n"

    @pytest.mark.parametrize("alpha", ["1e5", "1e8"])
    def test_alpha_cesaro_past_the_old_term_limit(self, capsys, alpha):
        # the Lerch kernel once raised past 4e6 terms here: exit 4
        code, out, err = run_cli(capsys, "radius", "--family", "alpha-cesaro", "--alpha", alpha, "--gamma", "0")
        assert code == 0 and err == ""
        assert 0.9999 < json.loads(out)["radius"] < 1.0

    def test_classical_anchor(self, capsys):
        code, out, _ = run_cli(
            capsys, "radius", "--family", "power-tail", "--N", "1", "--gamma", "0", "--p", "1"
        )
        assert code == 0
        data = json.loads(out)
        assert data["radius"] == pytest.approx(1.0 / 3.0, abs=1e-9)
        jsonschema.validate(data, load_schema("radius_result.schema.json"))

    def test_odd_family(self, capsys):
        code, out, _ = run_cli(capsys, "radius", "--family", "odd", "--gamma", "0", "--p", "1")
        assert code == 0
        assert json.loads(out)["radius"] == pytest.approx(math.sqrt(2) - 1, abs=1e-9)

    def test_gamma_out_of_range_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "radius", "--family", "power-tail", "--N", "1", "--gamma", "1.5", "--p", "1"
        )
        assert code == 2
        assert "gamma" in err

    def test_unknown_family_rejected_by_parser(self, capsys):
        code, _, _ = run_cli(capsys, "radius", "--family", "mystery", "--gamma", "0")
        assert code == 2

    def test_wrong_param_for_family(self, capsys):
        code, _, err = run_cli(
            capsys, "radius", "--family", "odd", "--beta", "2", "--gamma", "0"
        )
        assert code == 2
        assert "not valid" in err

    def test_version_echoed(self, capsys):
        _, out, _ = run_cli(capsys, "radius", "--family", "even", "--gamma", "0")
        assert json.loads(out)["version"] == __version__

    def test_radius_past_the_weight_overflow(self, capsys):
        # the weights overflow near 0.299, below the crossing, where the query
        # once ended in no root (3); tier-1 runs with RuntimeWarning as an
        # error, so an unsilenced numpy overflow fails here
        code, out, err = run_cli(capsys, "radius", "--family", "beta-cesaro", "--beta", "2000", "--gamma", "0")
        assert code == 0 and err == ""
        data = json.loads(out)
        query = RadiusQuery(BetaCesaro(2000.0), DomainParams(0.0), 1.0)
        assert abs(data["radius"] - mp_root(query, data["radius"])) <= 1e-12
        jsonschema.validate(data, load_schema("radius_result.schema.json"))

    def test_crossing_below_the_narrowing_floor(self, capsys):
        # the root is about 5e-14, below the 1e-12 the solver narrows (0, 1e-3)
        # to: still no root (3), but the message once said no crossing exists
        code, out, err = run_cli(capsys, "radius", "--family", "power-tail", "--gamma", "0", "--p", "1e-13")
        assert (code, out) == (3, "")
        assert "any crossing lies below the least of them, x = 2.3283064365386963e-13" in err
        assert "no crossing exists" not in err

    def test_bernardi_past_the_underflow(self, capsys):
        code, out, _ = run_cli(capsys, "radius", "--family", "bernardi", "--m", "400", "--delta", "1", "--gamma", "0")
        assert code == 0
        assert 0.33 < json.loads(out)["radius"] < 0.34


class TestTableCommand:
    def test_gamma_sweep_matches_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "power-tail", "--N", "1",
            "--gamma", "0:0.9:0.1", "--p", "1",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 10
        for row in rows:
            g = float(row["gamma"])
            assert float(row["radius"]) == pytest.approx((1 + g) / (3 + g), abs=1e-9)

    def test_empty_range_gives_header_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "power-tail", "--gamma", "0.5:0.4:0.1", "--p", "1"
        )
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 1
        assert lines[0].startswith("family,")

    def test_beta_sweep_jsonl(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "beta-cesaro", "--beta", "0.5,1,2",
            "--gamma", "0", "--p", "1", "--format", "jsonl",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 3
        schema = load_schema("table_row.schema.json")
        for row in rows:
            jsonschema.validate(row, schema)
        by_beta = {row["params"]["beta"]: row["radius"] for row in rows}
        # beta = 1 row solves 2x = 3(1-x) log(1/(1-x))
        x = by_beta[1]
        assert abs(2 * x - 3 * (1 - x) * math.log(1 / (1 - x))) <= 1e-9

    def test_csv_and_jsonl_give_the_same_values(self, capsys):
        # solved rows (sharp_window_ok is a bool), alpha = 1e5 among them (once
        # a RuntimeError row, from the Lerch kernel's term limit), and
        # ValueError rows (gamma = 1.5)
        argv = ("table", "--family", "alpha-cesaro", "--alpha", "0.5,1e5", "--gamma", "0,1.5")
        code, out_csv, _ = run_cli(capsys, *argv)
        assert code == 0
        code, out_jsonl, _ = run_cli(capsys, *argv, "--format", "jsonl")
        assert code == 0
        csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
        json_rows = [json.loads(line) for line in out_jsonl.splitlines()]
        assert len(csv_rows) == len(json_rows) == 4
        assert ["error" in row for row in json_rows] == [False, False, True, True]
        assert any(row["sharp_window_ok"] is True for row in json_rows)

        def value(text):
            if text == "":
                return None
            if text in ("true", "false"):
                return text == "true"
            try:
                return float(text)
            except ValueError:
                return text

        for row_csv, row_json in zip(csv_rows, json_rows):
            for column, text in row_csv.items():
                if column == "params":
                    pairs = (kv.split("=") for kv in text.split(";") if kv)
                    assert {k: float(v) for k, v in pairs} == row_json["params"]
                else:
                    assert value(text) == row_json.get(column), column

    @pytest.mark.parametrize("flag,text,reason", [
        ("--gamma", "0:inf:0.1", "needs a finite lo and hi and a finite step > 0"),
        ("--p", "1:inf:1", "needs a finite lo and hi and a finite step > 0"),
        ("--N", "1:inf:1", "needs a finite lo and hi and a finite step > 0"),
        ("--gamma", "-inf:0:1", "needs a finite lo and hi and a finite step > 0"),
        ("--gamma", "0:1:nan", "needs a finite lo and hi and a finite step > 0"),
        ("--gamma", "nan:1:0.1", "needs a finite lo and hi and a finite step > 0"),
        ("--gamma", "0:1:inf", "needs a finite lo and hi and a finite step > 0"),
        ("--gamma", "0:1:1e-12", "has more than 1,000,000 values"),
        ("--p", "-1e308:1e308:1", "has more than 1,000,000 values"),
    ])
    def test_range_that_cannot_be_listed_is_usage_error(self, capsys, flag, text, reason, monkeypatch):
        # an infinite range once ended in an OverflowError traceback (exit 1,
        # "verification failed"), a nan one in "cannot convert float NaN to
        # integer", and a step of 1e-12 would have built 10^12 values: each is
        # refused, naming the range, before a value is built or a root solved
        monkeypatch.setattr(cli, "minimal_root", None)
        code, out, err = run_cli(capsys, "table", "--family", "power-tail", "--gamma", "0", flag, text)
        assert code == 2 and out == ""
        assert err == f"error: range {text!r} {reason}\n"

    def test_range_up_to_the_limit_is_listed(self, monkeypatch):
        # the limit, 10^6 values, read at 10: ten values pass, eleven do not
        monkeypatch.setattr(cli, "_MAX_RANGE", 10)
        assert cli.parse_value_list("0:0.9:0.1") == pytest.approx([0.1 * i for i in range(10)])
        with pytest.raises(ValueError, match="more than 10 values"):
            cli.parse_value_list("0:1:0.1")

    @pytest.mark.parametrize("value", ["inf", "1.5"])
    def test_non_integral_int_parameter_is_usage_error(self, capsys, value):
        # --N inf ended in an OverflowError traceback; --N 1.5 silently ran N=1
        code, out, err = run_cli(capsys, "table", "--family", "linear", "--N", value, "--gamma", "0")
        assert code == 2
        assert out == ""
        assert err == "error: Linear N must be an integer\n"

    def test_integral_float_parameter_echoed_as_int(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--family", "linear", "--N", "2.0", "--gamma", "0")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["params"] for row in rows] == ["N=2"]

    @pytest.mark.parametrize(
        "family, option, value",
        [("bernardi", "--delta", "-0.5,1"), ("alpha-cesaro", "--alpha", "-0.5:0.5:0.25")],
    )
    def test_negative_list_or_range_is_a_value(self, capsys, family, option, value):
        # argparse read "-0.5,1" as an unknown option: "expected one argument"
        extra = ["--m", "1"] if family == "bernardi" else []
        spaced = run_cli(capsys, "table", "--family", family, *extra, option, value, "--gamma", "0")
        joined = run_cli(capsys, "table", "--family", family, *extra, f"{option}={value}", "--gamma", "0")
        assert spaced == joined
        assert spaced[0] == 0 and spaced[2] == ""
        assert len(list(csv.DictReader(io.StringIO(spaced[1])))) == (2 if family == "bernardi" else 5)

    def test_missing_value_is_still_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "table", "--family", "even", "--p", "--gamma", "0")
        assert code == 2
        assert out == ""
        assert "argument --p: expected one argument" in err

    def test_rows_sorted_by_gamma_then_p(self, capsys):
        _, out, _ = run_cli(
            capsys, "table", "--family", "even", "--gamma", "0,0.5", "--p", "2,1",
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        keys = [(float(r["gamma"]), float(r["p"])) for r in rows]
        assert keys == sorted(keys)


class TestFamilyParameters:
    """Every family parameter is read by one parser on every command: radius
    and verify once took an int parameter as argparse's int, so --m 1.0
    exited 2 with "invalid int value" where table and operator ran."""

    FAMILY_ARGV = {
        "radius": ["radius", "--gamma", "0"],
        "verify": ["verify", "--fn", "constant:0.5", "--gamma", "0"],
        "table": ["table", "--gamma", "0", "--format", "jsonl"],
    }

    @pytest.mark.parametrize("command", FAMILY_ARGV)
    @pytest.mark.parametrize("family, integral, given, echoed", [
        ("bernardi", ["--m", "1", "--delta", "1"], ["--m", "1.0", "--delta", "1"], '"m": 1'),
        ("power-tail", ["--N", "2"], ["--N", "2.0"], '"N": 2'),
    ], ids=["bernardi", "power-tail"])
    def test_integral_float_runs_as_the_int(self, capsys, command, family, integral, given, echoed):
        argv = [*self.FAMILY_ARGV[command], "--family", family]
        expected = run_cli(capsys, *argv, *integral)
        assert expected[0] == 0 and expected[2] == "" and echoed in expected[1]
        assert run_cli(capsys, *argv, *given) == expected

    def test_operator_parameters_read_as_on_the_family_commands(self, capsys):
        code, out, _ = run_cli(capsys, "operator", "--bernardi", "1.0", "1", "radius")
        assert code == 0 and json.loads(out)["params"] == {"m": 1, "delta": 1}
        assert run_cli(capsys, "operator", "--beta-cesaro", "2.0", "bound", "--r", "0.5") == \
            run_cli(capsys, "operator", "--beta-cesaro", "2", "bound", "--r", "0.5")

    @pytest.mark.parametrize("command", FAMILY_ARGV)
    @pytest.mark.parametrize("family, option, value, message", [
        ("bernardi", "--m", "1.5", "Bernardi m must be an integer"),
        ("power-tail", "--N", "inf", "PowerTail N must be an integer"),
        ("power-tail", "--N", "1.5", "PowerTail N must be an integer"),
        ("beta-cesaro", "--beta", "abc", "BetaCesaro beta must be a number, got 'abc'"),
    ], ids=["m-1.5", "N-inf", "N-1.5", "beta-abc"])
    def test_bad_value_is_a_usage_error(self, capsys, command, family, option, value, message):
        code, out, err = run_cli(capsys, *self.FAMILY_ARGV[command], "--family", family, option, value)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestNegativeValues:
    # argparse's own matcher takes "-0.5" and "-.5" but not "-5e-1": without
    # the shared matcher, exponent forms exit 2 with "expected one argument"
    @pytest.mark.parametrize(
        "before, option, value, after",
        [
            (["radius", "--family", "alpha-cesaro"], "--alpha", "-5e-1", ["--gamma", "0"]),
            (["radius", "--family", "bernardi", "--m", "1"], "--delta", "-.5", ["--gamma", "0"]),
            (["verify", "--fn", "blaschke:3", "--family", "even", "--gamma", "0"],
             "--tolerance", "-1e-3", []),
            (["operator"], "--alpha-cesaro", "-5e-1", ["radius"]),
        ],
    )
    def test_spaced_form_matches_joined_form(self, capsys, before, option, value, after):
        spaced = run_cli(capsys, *before, option, value, *after)
        joined = run_cli(capsys, *before, f"{option}={value}", *after)
        assert spaced == joined
        assert spaced[0] == 0 and spaced[2] == ""

    @pytest.mark.parametrize(
        "before, option, value, after, message",
        [
            (["verify", "--fn", "constant:0", "--family", "even", "--gamma", "0"],
             "--tolerance", "-inf", [], "tolerance must be finite"),
            (["verify", "--fn", "constant:0", "--family", "even", "--gamma", "0"],
             "--tolerance", "-NaN", [], "tolerance must be finite"),
            (["radius", "--family", "alpha-cesaro"], "--alpha", "-Infinity", ["--gamma", "0"],
             "alpha must be finite"),
            (["radius", "--family", "bernardi", "--m", "1"], "--delta", "-nan", ["--gamma", "0"],
             "delta must be finite"),
            (["operator"], "--beta-cesaro", "-INF", ["radius"], "beta must be finite"),
        ],
    )
    def test_negative_non_finite_reaches_the_validator(self, capsys, before, option, value, after, message):
        # "-inf" and "-nan" were read as options: exit 2 with "expected one argument"
        code, out, err = run_cli(capsys, *before, option, value, *after)
        assert (code, out) == (2, "")
        assert message in err
        assert "expected one argument" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["radius", "--family", "even"],
            ["verify", "--fn", "constant:0", "--family", "even"],
            ["operator", "bound", "--alpha-cesaro", "1"],
        ],
    )
    def test_option_is_still_not_a_value(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--p", "--gamma", "0")
        assert code == 2
        assert out == ""
        assert "argument --p: expected one argument" in err


class TestVerifyCommand:
    def test_constant_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--fn", "constant:0.5", "--family", "power-tail",
            "--N", "1", "--gamma", "0", "--p", "1",
        )
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        jsonschema.validate(data, load_schema("bohr_report.schema.json"))

    def test_sharpness_flip_with_r_beyond(self, capsys):
        base = ["verify", "--fn", "extremal:0.999", "--family", "odd",
                "--gamma", "0.25", "--p", "1"]
        code, _, _ = run_cli(capsys, *base)
        assert code == 0
        code, out, _ = run_cli(capsys, *base, "--r-beyond", "0.01")
        assert code == 1
        assert json.loads(out)["pass"] is False

    @pytest.mark.parametrize("points", ["1", "0"])
    def test_grid_of_fewer_than_two_points_is_usage_error(self, capsys, points):
        # one point is r = 0 alone: this call printed pass: true and exited 0,
        # while two points fail it
        base = ["verify", "--fn", "extremal:0.999", "--family", "power-tail",
                "--gamma", "0", "--r-beyond", "0.2"]
        code, out, err = run_cli(capsys, *base, "--grid-points", points)
        assert code == 2
        assert out == ""
        assert err == "error: grid_points must be >= 2\n"
        code, out, _ = run_cli(capsys, *base, "--grid-points", "2")
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_non_member_coefficient_file_fails(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0\n2 0\n")
        code, out, _ = run_cli(
            capsys, "verify", "--fn", f"coeffs:{bad}", "--family", "power-tail",
            "--N", "1", "--gamma", "0", "--p", "1",
        )
        assert code == 1
        data = json.loads(out)
        assert data["membership_ok"] is False

    def test_long_coefficient_file_verified_whole_screened_to_order(self, capsys, tmp_path):
        # c_4 = 0.9 breaks the membership bound, but the screen reads only
        # c_0 ... c_order; the Bohr sums take every stored coefficient
        coeffs = tmp_path / "long.txt"
        coeffs.write_text("0.5 0\n0.1 0\n0 0.2\n0 0\n0.9 0\n")
        code, out, _ = run_cli(
            capsys, "verify", "--fn", f"coeffs:{coeffs}", "--family", "power-tail",
            "--N", "1", "--gamma", "0", "--p", "1", "--order", "2", "--grid-points", "4",
        )
        data = json.loads(out)
        assert data["membership_ok"] is True
        assert data["truncation_bound"] == 0.0
        r = data["radii"][-1]
        assert data["bohr_sums"][-1] == pytest.approx(0.5 + 0.1 * r + 0.2 * r ** 2 + 0.9 * r ** 4, rel=1e-14)
        code, out, _ = run_cli(
            capsys, "verify", "--fn", f"coeffs:{coeffs}", "--family", "power-tail",
            "--N", "1", "--gamma", "0", "--p", "1", "--order", "4", "--grid-points", "4",
        )
        assert json.loads(out)["membership_ok"] is False

    @pytest.mark.parametrize("c0, violation", [("1.5", 0.5), ("-2j", 1.0), ("1.00000000001", 1.000000082740371e-11)])
    def test_constant_term_above_one_fails_the_screen(self, capsys, c0, violation):
        # |c_0| > 1 fails the screen at any excess, reported as |c_0| - 1
        code, out, _ = run_cli(
            capsys, "verify", "--fn", f"constant:{c0}", "--family", "power-tail",
            "--N", "1", "--gamma", "0.5", "--p", "1",
        )
        data = json.loads(out)
        assert code == 1
        assert data["membership_ok"] is False
        assert data["membership_max_violation"] == violation

    def test_overflowing_weight_table_is_a_numeric_failure(self, capsys):
        # valid input whose weights leave the floats: exit 4, no longer 2 (usage)
        with pytest.warns(RuntimeWarning, match="overflow"):
            code, out, err = run_cli(
                capsys, "verify", "--family", "beta-cesaro", "--beta", "300", "--fn", "constant:0.5",
                "--gamma", "0.9", "--p", "1",
            )
        assert (code, out) == (4, "")
        assert err.startswith("error: the beta-cesaro weight table overflowed")

    @pytest.mark.parametrize("fn,r_beyond,expected", [("extremal:0.5", "0", 0), ("extremal:0.999", "0.05", 1)])
    def test_subnormal_phi0_gets_a_verdict(self, capsys, fn, r_beyond, expected):
        # phi_0 at the radius is subnormal: the raw table was refused (2), and
        # once passed every function; the scaled weights give a verdict
        code, out, err = run_cli(
            capsys, "verify", "--fn", fn, "--family", "bernardi", "--m", "640", "--delta", "1",
            "--gamma", "0", "--r-beyond", r_beyond,
        )
        data = json.loads(out)
        assert (code, err, data["pass"]) == (expected, "", expected == 0)
        assert any(0.0 < v < sys.float_info.min for v in data["phi0_values"])
        jsonschema.validate(data, load_schema("bohr_report.schema.json"))

    def test_blaschke_descriptors(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--fn", "blaschke:42", "--family", "even",
            "--gamma", "0.25", "--p", "2",
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "verify", "--fn", "blaschke:0.3+0.1j,-0.2j", "--family", "even",
            "--gamma", "0.25", "--p", "2",
        )
        assert code == 0

    @pytest.mark.parametrize("payload, zero", [("-3", "(-3+0j)"), ("7_0", "(70+0j)"), (" 7", "(7+0j)")])
    def test_blaschke_seed_is_digits_only(self, capsys, payload, zero):
        # a seed takes BOHR_SEED's rule; int() once read "7_0" as 70 and " 7"
        # as 7, and "-3" reached numpy; any other payload is a list of zeros
        code, out, err = run_cli(
            capsys, "verify", "--fn", f"blaschke:{payload}", "--family", "even", "--gamma", "0",
        )
        assert (code, out) == (2, "")
        assert err == f"error: Blaschke zero {zero} must lie strictly inside the unit disk\n"

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_is_usage_error(self, capsys, tol):
        # it ran the whole check, then failed to serialize the report
        code, out, err = run_cli(
            capsys, "verify", "--fn", "constant:0.5", "--family", "even",
            "--gamma", "0", "--tolerance", tol,
        )
        assert (code, out) == (2, "")
        assert err == "error: tolerance must be finite\n"

    def test_parse_error_exit_code(self, capsys, tmp_path):
        mangled = tmp_path / "mangled.txt"
        mangled.write_text("zero point five\n")
        code, _, err = run_cli(
            capsys, "verify", "--fn", f"coeffs:{mangled}", "--family", "even",
            "--gamma", "0", "--p", "1",
        )
        assert code == 2


class TestOperatorCommand:
    def test_radius_bracket(self, capsys):
        code, out, _ = run_cli(capsys, "operator", "--beta-cesaro", "1", "radius", "--gamma", "0")
        assert code == 0
        data = json.loads(out)
        assert 0.5 < data["radius"] < 0.55
        jsonschema.validate(data, load_schema("operator_result.schema.json"))

    def test_bernardi_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "operator", "--bernardi", "1", "1", "bound", "--r", "0.5"
        )
        assert code == 0
        data = json.loads(out)
        assert data["bound"] == pytest.approx(0.25, abs=1e-15)
        jsonschema.validate(data, load_schema("operator_result.schema.json"))

    def test_large_beta_radius_near_gamma_one(self, capsys):
        code, out, _ = run_cli(capsys, "operator", "--beta-cesaro", "40", "radius", "--gamma", "0.9")
        assert code == 0
        jsonschema.validate(json.loads(out), load_schema("operator_result.schema.json"))

    def test_radius_past_the_printed_overflow(self, capsys):
        # the printed radius equation overflows in floats at this radius, which
        # once ended the call in a numeric failure (4): the family's radius
        code, out, err = run_cli(capsys, "operator", "--beta-cesaro", "2000", "radius", "--gamma", "0")
        assert code == 0 and err == ""
        _, family_out, _ = run_cli(capsys, "radius", "--family", "beta-cesaro", "--beta", "2000", "--gamma", "0")
        assert json.loads(out)["radius"] == json.loads(family_out)["radius"]

    @pytest.mark.parametrize("family, names", [
        ("beta-cesaro", ["--beta"]), ("alpha-cesaro", ["--alpha"]), ("bernardi", ["--m", "--delta"]),
    ])
    def test_operator_radius_is_the_family_radius(self, capsys, family, names):
        import numpy as np

        rng = np.random.default_rng(29)
        for _ in range(3):
            gamma = repr(float(rng.uniform(0.0, 0.9)))
            if family == "beta-cesaro":
                values = [repr(float(10.0 ** rng.uniform(-2.0, 3.0)))]
            elif family == "alpha-cesaro":
                values = [repr(float(rng.uniform(-0.9, 50.0)))]
            else:
                m = int(rng.integers(1, 6))
                values = [str(m), repr(float(rng.uniform(0.5 - m, 5.0)))]
            code, out, _ = run_cli(capsys, "operator", f"--{family}", *values, "radius", "--gamma", gamma)
            options = [arg for pair in zip(names, values) for arg in pair]
            family_code, family_out, _ = run_cli(capsys, "radius", "--family", family, *options, "--gamma", gamma)
            assert code == family_code == 0
            operator_data, family_data = json.loads(out), json.loads(family_out)
            for key in ("radius", "bracket", "residual", "evaluations"):
                assert operator_data[key] == family_data[key]

    def test_alpha_equals_beta_radius(self, capsys):
        _, out1, _ = run_cli(capsys, "operator", "--alpha-cesaro", "0", "radius", "--gamma", "0")
        _, out2, _ = run_cli(capsys, "operator", "--beta-cesaro", "1", "radius", "--gamma", "0")
        assert abs(json.loads(out1)["radius"] - json.loads(out2)["radius"]) <= 1e-10

    def test_apply_round_trip(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        dst = tmp_path / "out.txt"
        write_coefficients(str(src), CoefficientSeries([0.0, 1.0, 0.5 - 0.25j, 1e-17]))
        code, out, _ = run_cli(
            capsys, "operator", "--bernardi", "1", "1", "apply",
            "--coeffs", str(src), "--out", str(dst),
        )
        assert code == 0
        jsonschema.validate(json.loads(out), load_schema("operator_result.schema.json"))
        written = read_coefficients(str(dst))
        # re-reading the written text reproduces the in-memory series exactly
        rewritten = tmp_path / "again.txt"
        write_coefficients(str(rewritten), written)
        assert rewritten.read_text() == dst.read_text()
        import numpy as np

        expected = [0.0, 0.5, (0.5 - 0.25j) / 3.0, 1e-17 / 4.0]
        np.testing.assert_array_equal(written.coefficients, expected)

    def test_infinite_int_parameter_is_usage_error(self, capsys):
        # ended in an OverflowError traceback
        code, out, err = run_cli(capsys, "operator", "--bernardi", "inf", "1", "bound", "--r", "0.5")
        assert code == 2
        assert out == ""
        assert err == "error: Bernardi m must be an integer\n"

    def test_missing_spec_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "operator", "radius", "--gamma", "0")
        assert code == 2

    def test_two_specs_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "operator", "--beta-cesaro", "1", "--alpha-cesaro", "0", "radius"
        )
        assert code == 2


class TestSuiteCommand:
    def _config(self, tmp_path, **overrides):
        cfg = {
            "seed": 11,
            "samples_per_cell": 2,
            "gamma_grid": [0.0, 0.5],
            "p_grid": [1.0],
            "families": [
                {"name": "power-tail", "params": {"N": 1}},
                {"name": "alpha-cesaro", "params": {"alpha": 0.0}},
            ],
            "tolerance": 1e-9,
        }
        cfg.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_config_run_validates_schema(self, capsys, tmp_path):
        path = self._config(tmp_path)
        code, out, _ = run_cli(capsys, "suite", "--config", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["overall_pass"] is True
        jsonschema.validate(data, load_schema("suite_report.schema.json"))

    def test_zero_samples_is_usage_error(self, capsys, tmp_path):
        path = self._config(tmp_path, samples_per_cell=0)
        code, _, err = run_cli(capsys, "suite", "--config", str(path))
        assert code == 2

    def test_missing_key_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"seed": 1}))
        code, _, err = run_cli(capsys, "suite", "--config", str(path))
        assert code == 2
        assert "missing" in err

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run_cli(capsys, "suite", "--config", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("samples_per_cell", 2.7),
            ("grid_points", 4.9),
            ("truncation_order", "40"),
            ("seed", True),
            ("negative_controls", "false"),
            ("negative_controls", 0),
            ("tolerance", True),
            ("tolerance", "1e-9"),
            ("p_grid", [True]),
            ("gamma_grid", ["0"]),
            ("gamma_grid", 0.0),
        ],
    )
    def test_coerced_value_is_usage_error(self, capsys, tmp_path, key, value):
        # once read as int(2.7) == 2, int(True) == 1, bool("false") is True,
        # float(True) == 1 and float("0") == 0
        path = self._config(tmp_path, **{key: value})
        code, out, err = run_cli(capsys, "suite", "--config", str(path))
        assert code == 2
        assert out == ""
        assert f"error: {key} must be" in err

    def test_integral_float_is_an_int(self, capsys, tmp_path):
        path = self._config(tmp_path, seed=11.0, samples_per_cell=2.0)
        code, out, _ = run_cli(capsys, "suite", "--config", str(path))
        assert code == 0
        config = json.loads(out)["config"]
        assert (config["seed"], config["samples_per_cell"]) == (11, 2)

    def test_echoed_config_replays(self, capsys, tmp_path):
        # the echo carries every SuiteConfig field, so a run at a
        # non-default truncation order replays from its own report: the
        # replayed config is the config that ran, and the report repeats
        path = self._config(tmp_path, truncation_order=40, grid_points=5, negative_controls=False)
        code, out, _ = run_cli(capsys, "suite", "--config", str(path))
        assert code == 0
        first = json.loads(out)
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps(first["config"]))
        code, out_replay, _ = run_cli(capsys, "suite", "--config", str(replay))
        assert code == 0
        assert out_replay == out  # cells and echo, byte for byte
        assert load_suite_config(str(replay)) == load_suite_config(str(path))

    def test_env_seed_override(self, capsys, tmp_path, monkeypatch):
        path = self._config(tmp_path)
        monkeypatch.setenv("BOHR_SEED", "777")
        code, out, _ = run_cli(capsys, "suite", "--config", str(path))
        assert code == 0
        assert json.loads(out)["seed"] == 777

    @pytest.mark.parametrize("value", ["x", "7_0", " 7 ", "-3", "+7", "", "7.0", "٧"])
    def test_malformed_env_seed_is_usage_error(self, capsys, tmp_path, monkeypatch, value):
        # int() once read "7_0" as 70, " 7 " as 7 and "٧" (Arabic-Indic seven) as 7
        path = self._config(tmp_path)
        monkeypatch.setenv("BOHR_SEED", value)
        code, out, err = run_cli(capsys, "suite", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: BOHR_SEED must be a non-negative integer, got {value!r}\n"

    def test_negative_config_seed_is_usage_error(self, capsys, tmp_path):
        # once numpy's "expected non-negative integer", naming no key
        path = self._config(tmp_path, seed=-1)
        code, out, err = run_cli(capsys, "suite", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("kind", ["inequality", "sharpness"])
    def test_negative_truncation_order_is_usage_error(self, capsys, tmp_path, kind):
        # once "error: order must be >= 0" from the first cell's coefficients,
        # and no error at all from the sharpness suite, which builds none
        path = self._config(tmp_path, truncation_order=-1)
        code, out, err = run_cli(capsys, "suite", "--config", str(path), "--kind", kind)
        assert (code, out, err) == (2, "", "error: truncation_order must be >= 0\n")

    @pytest.mark.parametrize("gamma", [0.995, 0.9999])
    def test_sharpness_gamma_beyond_the_ladder_is_skipped(self, capsys, tmp_path, gamma):
        # gamma = 0.995 once exited 2: "requires gamma < a < 1, got gamma=0.995, a=0.99"
        path = self._config(tmp_path, gamma_grid=[0.0, gamma])
        code, out, err = run_cli(capsys, "suite", "--config", str(path), "--kind", "sharpness")
        assert code == 0
        assert err == ""
        data = json.loads(out)
        skipped = [c["skipped"] for c in data["cells"] if c["query"]["gamma"] == gamma]
        assert skipped == ["gamma too close to 1 for the extremal parameter ladder"] * 2
        assert data["overall_pass"] is True
        jsonschema.validate(data, load_schema("suite_report.schema.json"))

    def test_sharpness_kind(self, capsys, tmp_path):
        path = self._config(tmp_path)
        code, out, _ = run_cli(capsys, "suite", "--config", str(path), "--kind", "sharpness")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "sharpness"
        assert all(c["status"] == "pass" for c in data["cells"])
        jsonschema.validate(data, load_schema("suite_report.schema.json"))

    def test_sharpness_overflowing_weight_table_is_a_numeric_failure(self, capsys, tmp_path):
        # the margin reads the scaled table, which refuses a table that is not
        # finite: exit 4; the absolute sum read nan, and the CLI exited 2 when
        # it came to serialize the report
        path = self._config(tmp_path, gamma_grid=[0.0], families=[{"name": "beta-cesaro", "params": {"beta": 400}}])
        with pytest.warns(RuntimeWarning, match="overflow"):
            code, out, err = run_cli(capsys, "suite", "--config", str(path), "--kind", "sharpness")
        assert (code, out) == (4, "")
        assert err.startswith("error: the beta-cesaro weight table overflowed")

    def test_out_file(self, capsys, tmp_path):
        path = self._config(tmp_path)
        report = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "suite", "--config", str(path), "--out", str(report))
        assert code == 0
        assert out == ""
        jsonschema.validate(json.loads(report.read_text()), load_schema("suite_report.schema.json"))

    def test_default_config_covers_every_family(self, capsys):
        # no --config: the built-in default config runs (sharpness kind keeps
        # this quick); all nine families must appear
        code, out, _ = run_cli(capsys, "suite", "--kind", "sharpness")
        assert code == 0
        data = json.loads(out)
        assert data["overall_pass"] is True
        names = {c["query"]["family"] for c in data["cells"]}
        assert len(names) == 9
        jsonschema.validate(data, load_schema("suite_report.schema.json"))


class TestCoefficientsIO:
    def test_seventeen_digit_round_trip(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(13)
        values = rng.normal(size=20) * 10.0 ** rng.integers(-300, 300, size=20)
        series = CoefficientSeries(values + 1j * rng.normal(size=20))
        path = tmp_path / "c.txt"
        write_coefficients(str(path), series)
        back = read_coefficients(str(path))
        np.testing.assert_array_equal(back.coefficients, series.coefficients)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        with pytest.raises(ValueError):
            read_coefficients(str(path))

    def test_rejects_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(ValueError):
            read_coefficients(str(path))
