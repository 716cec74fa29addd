"""Command-line front end: radius, table, verify, operator, suite.

Exit codes: 0 success/pass, 1 verification failure, 2 usage error, 3 no root,
4 numeric failure (a RuntimeError on valid input, e.g. an overflow).  Floats
are printed with 17 significant digits, so they round-trip byte for byte.

Each JSON record is a header {"command", "version"}, the echo of the
command's arguments, then the fields of the library object it ran: a
RadiusResult, a report's to_dict(), or, for a suite, every SuiteConfig field
as the echoed config.  A table row has the columns _TABLE_COLUMNS, filled from
the RadiusResult; CSV and JSONL both render each cell with render_json.

A call that starts with a command is parsed by that command's parser alone
(_command_parser on a parser of its own), the parser the full one hands the
rest of argv to.  Every other call, and one whose command parser leaves
arguments over, is parsed by build_parser(), so help, --version, usage and
errors are the full parser's.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .bohr import verify_up_to_radius
from .harness import (
    SuiteConfig,
    default_config,
    random_bounded_functions,
    run_inequality_suite,
    run_sharpness_suite,
)
from .radius import DEFAULT_TOL, NoRootError, RadiusQuery, minimal_root
from .series import (
    DEFAULT_ORDER,
    BlaschkeComposed,
    CoefficientSeries,
    DomainParams,
    Extremal,
    Raw,
    lemma_bound_report,
)
from .weights import FAMILY_CLASSES, OperatorFamily, make_family, phi0

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NO_ROOT = 3
EXIT_NUMERIC = 4

_PARAM_FIELDS = {
    name: tuple(f.name for f in dataclasses.fields(cls)) for name, cls in FAMILY_CLASSES.items()
}
# every family parameter once, in registry order, with the type of its default
_PARAM_TYPES = {
    f.name: type(f.default) for cls in FAMILY_CLASSES.values() for f in dataclasses.fields(cls)
}
_OPERATOR_CLASSES = tuple(cls for cls in FAMILY_CLASSES.values() if issubclass(cls, OperatorFamily))
_TABLE_COLUMNS = ("family", "params", "gamma", "p", "radius", "residual", "sharp_window_ok", "error")
_MAX_RANGE = 10 ** 6  # values of one lo:hi:step range, at the most
# the SuiteConfig fields a config file must give; the others keep their defaults
_SUITE_REQUIRED = ("seed", "samples_per_cell", "gamma_grid", "p_grid", "families", "tolerance")
_SEED = re.compile(r"[0-9]+")  # a seed is ASCII digits only: no sign, space or underscore


# ---------------------------------------------------------------------------
# JSON rendering with explicit float formatting

def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("refusing to serialize a non-finite float")
    return f"{x:.17g}"


def render_json(obj, level: int = 0, compact: bool = False) -> str:
    pad = "  " * level
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, complex):
        return render_json([obj.real, obj.imag], level, compact)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if compact:
            inner = ", ".join(
                f"{json.dumps(str(k))}: {render_json(v, 0, True)}" for k, v in obj.items()
            )
            return "{" + inner + "}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {render_json(v, level + 1)}" for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(render_json(v, level, compact) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def emit(command: str, record: dict, out: str | None = None) -> None:
    """Write the record under its header to the file out, or to stdout if out is empty."""
    text = render_json({"command": command, "version": __version__, **record}) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# shared argument helpers

def _add_family_options(parser: argparse.ArgumentParser) -> None:
    """--family and every family parameter as text: _parse_param reads a value,
    and table reads value lists of them."""
    parser.add_argument("--family", required=True, choices=sorted(FAMILY_CLASSES))
    for f in _PARAM_TYPES:
        parser.add_argument(f"--{f}", default=None)


def _collect_params(args, name: str) -> dict:
    """The text of each parameter given; one the family does not take is a ValueError."""
    allowed = _PARAM_FIELDS[name]
    params = {}
    for f in _PARAM_TYPES:
        v = getattr(args, f)
        if v is None:
            continue
        if f not in allowed:
            raise ValueError(f"parameter --{f} is not valid for family {name!r}")
        params[f] = v
    return params


def _family_params(args) -> dict:
    cls = FAMILY_CLASSES[args.family]
    return {f: _parse_param(cls, f, text) for f, text in _collect_params(args, args.family).items()}


def _echo(args, *names: str) -> dict:
    """The named arguments as given; "params" is the family's parameters."""
    return {n: _family_params(args) if n == "params" else getattr(args, n) for n in names}


def _build_family(args):
    return make_family(args.family, _family_params(args))


def _parse_param(cls, name: str, text: str) -> float | int:
    """Parameter ``name`` of family class cls from its command-line text; an
    int field takes only finite integral values."""
    try:
        x = float(text)
    except ValueError:
        raise ValueError(f"{cls.__name__} {name} must be a number, got {text!r}") from None
    if _PARAM_TYPES[name] is int:
        if not x.is_integer():  # also false for inf and nan
            raise ValueError(f"{cls.__name__} {name} must be an integer")
        x = int(x)
    return x


def parse_value_list(text: str, kind=float) -> list:
    """'lo:hi:step' (inclusive), 'a,b,c', or a single value."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be lo:hi:step, got {text!r}")
        lo, hi, step = (float(p) for p in parts)
        if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < step < math.inf):
            raise ValueError(f"range {text!r} needs a finite lo and hi and a finite step > 0")
        if not (hi - lo) / step < _MAX_RANGE:  # false for an inf quotient too
            raise ValueError(f"range {text!r} has more than {_MAX_RANGE:,} values")
        n = int(math.floor((hi - lo) / step + 1e-9)) + 1
        return [kind(lo + i * step) for i in range(max(n, 0))]
    return [kind(tok) for tok in text.split(",") if tok.strip() != ""]


def read_coefficients(path: str) -> CoefficientSeries:
    """One coefficient per line, two decimal fields 're im'."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected two fields 're im'")
            try:
                values.append(complex(float(fields[0]), float(fields[1])))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: cannot parse {line!r}") from None
    if not values:
        raise ValueError(f"{path}: no coefficients found")
    return CoefficientSeries(values)


def write_coefficients(path: str, series: CoefficientSeries) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for c in series.coefficients:
            fh.write(f"{format_float(c.real)} {format_float(c.imag)}\n")


def parse_function(text: str, domain: DomainParams):
    kind, sep, payload = text.partition(":")
    if not sep:
        raise ValueError(f"function descriptor needs '<kind>:<payload>', got {text!r}")
    if kind == "constant":
        return Raw(CoefficientSeries([complex(payload)]))
    if kind == "extremal":
        return Extremal(domain, float(payload))
    if kind == "blaschke":
        if _SEED.fullmatch(payload):
            return random_bounded_functions(domain, np.random.default_rng(int(payload)), 1)[0]
        zeros = [complex(tok) for tok in payload.split(",") if tok.strip()]
        return BlaschkeComposed(domain, tuple(zeros), 1.0)
    if kind == "coeffs":
        return Raw(read_coefficients(payload))
    raise ValueError(f"unknown function kind {kind!r}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_radius(args) -> int:
    family = _build_family(args)
    query = RadiusQuery(family, DomainParams(args.gamma), args.p)
    res = minimal_root(query, tol=args.tol)
    emit(
        "radius",
        {"parameters": _echo(args, "family", "params", "gamma", "p", "tol"), **dataclasses.asdict(res)},
    )
    return EXIT_OK


def _table_rows(args):
    name = args.family
    cls = FAMILY_CLASSES[name]
    gammas = sorted(parse_value_list(args.gamma))
    ps = sorted(parse_value_list(args.p))
    fields = _PARAM_FIELDS[name]
    value_lists = []
    for f in fields:
        raw = getattr(args, f)
        if raw is None:
            value_lists.append([None])
        else:
            value_lists.append(parse_value_list(raw, kind=functools.partial(_parse_param, cls, f)))
    for gamma in gammas:
        for p in ps:
            for combo in itertools.product(*value_lists):
                params = {f: v for f, v in zip(fields, combo) if v is not None}
                yield gamma, p, params


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, dict):  # family parameters, as given on the command line
        return ";".join(f"{k}={v}" for k, v in value.items())
    return render_json(value)


def cmd_table(args) -> int:
    name = args.family
    _collect_params(args, name)  # rejects parameters the family does not take
    rows = []
    for gamma, p, params in _table_rows(args):
        row = dict.fromkeys(_TABLE_COLUMNS)
        row.update(family=name, params=params, gamma=gamma, p=p)
        try:
            family = make_family(name, params)
            res = minimal_root(RadiusQuery(family, DomainParams(gamma), p), tol=args.tol)
            row.update((k, v) for k, v in dataclasses.asdict(res).items() if k in row)
        except NoRootError as exc:
            row["error"] = f"no root: {exc}"
        except (ValueError, RuntimeError) as exc:
            row["error"] = str(exc)
        rows.append(row)
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(_TABLE_COLUMNS)
        writer.writerows([_csv_cell(v) for v in row.values()] for row in rows)
    else:
        for row in rows:
            record = {k: v for k, v in row.items() if not (k == "error" and v is None)}
            sys.stdout.write(render_json(record, compact=True) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    family = _build_family(args)
    domain = DomainParams(args.gamma)
    query = RadiusQuery(family, domain, args.p)
    f = parse_function(args.fn, domain)
    res = minimal_root(query, tol=args.tol)
    target = res.radius + args.r_beyond
    if not (0.0 <= target < 1.0):
        raise ValueError("--r-beyond pushes the grid outside [0, 1)")
    # one build, never cut: the check and the screen read the same row, all
    # of a coeffs: list longer than --order + 1
    series = f.coefficients(args.order)
    report = verify_up_to_radius(
        f, query, target, grid_points=args.grid_points, order=series.order, tol=args.tolerance,
        moduli=series.moduli(),
    )
    # membership screen: the coefficient bound is necessary for class members
    membership = lemma_bound_report(series, domain)
    emit(
        "verify",
        {
            "parameters": _echo(
                args, "fn", "family", "params", "gamma", "p", "r_beyond", "grid_points", "order"
            ),
            "radius": res.radius,
            "verified_up_to": target,
            "membership_ok": membership.ok,
            "membership_max_violation": membership.max_violation,
            **report.to_dict(),
        },
    )
    return EXIT_OK if (report.passed and membership.ok) else EXIT_FAIL


def _operator_spec(args):
    given = {cls: getattr(args, cls.name.replace("-", "_")) for cls in _OPERATOR_CLASSES}
    chosen = [(cls, value) for cls, value in given.items() if value is not None]
    if len(chosen) != 1:
        flags = ", ".join(f"--{cls.name}" for cls in _OPERATOR_CLASSES)
        raise ValueError(f"specify exactly one of {flags}")
    cls, texts = chosen[0]
    return cls(**{f.name: _parse_param(cls, f.name, text) for f, text in zip(dataclasses.fields(cls), texts)})


def cmd_operator(args) -> int:
    spec = _operator_spec(args)
    echo = {"action": args.action, "operator": type(spec).__name__, "params": spec.params()}
    if args.action == "bound":
        if args.r is None:
            raise ValueError("bound requires --r")
        if not 0.0 < args.r < 1.0:
            raise ValueError("r must be in (0, 1)")
        emit("operator", {**echo, **_echo(args, "r"), "bound": phi0(spec, args.r)})
    elif args.action == "radius":
        res = minimal_root(RadiusQuery(spec, DomainParams(args.gamma), args.p), tol=args.tol)
        emit("operator", {**echo, **_echo(args, "gamma", "p", "tol"), **dataclasses.asdict(res)})
    else:
        if args.coeffs is None or args.out is None:
            raise ValueError("apply requires --coeffs and --out")
        transformed = CoefficientSeries(spec.transform(read_coefficients(args.coeffs).coefficients))
        write_coefficients(args.out, transformed)
        emit("operator", {**echo, **_echo(args, "coeffs", "out"), "n_coefficients": len(transformed)})
    return EXIT_OK


def load_suite_config(path: str) -> SuiteConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    fields = dataclasses.fields(SuiteConfig)
    missing = [f.name for f in fields if f.name in _SUITE_REQUIRED and f.name not in data]
    if missing:
        raise ValueError(f"config is missing keys: {missing}")
    # SuiteConfig checks every value; only the families (a required key) are built here
    values = {f.name: data[f.name] for f in fields if f.name in data}
    values["families"] = tuple(make_family(e["name"], e.get("params")) for e in values["families"])
    return SuiteConfig(**values)


def cmd_suite(args) -> int:
    try:
        config = load_suite_config(args.config) if args.config else default_config()
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed config: {exc}") from exc
    env_seed = os.environ.get("BOHR_SEED")
    if env_seed is not None:
        if not _SEED.fullmatch(env_seed):
            raise ValueError(f"BOHR_SEED must be a non-negative integer, got {env_seed!r}")
        config = dataclasses.replace(config, seed=int(env_seed))
    runner = run_sharpness_suite if args.kind == "sharpness" else run_inequality_suite
    report = runner(config)
    echo = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    echo["families"] = [{"name": f.name, "params": f.params()} for f in config.families]
    emit("suite", {"config": echo, **report.to_dict()}, args.out)
    return EXIT_OK if report.overall_pass else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser: one table of commands, each with its options

def _radius_options(parser: argparse.ArgumentParser) -> None:
    _add_family_options(parser)
    parser.add_argument("--gamma", type=float, required=True)
    parser.add_argument("--p", type=float, default=1.0)
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)


def _table_options(parser: argparse.ArgumentParser) -> None:
    _add_family_options(parser)
    parser.add_argument("--gamma", type=str, required=True, help="value, list, or lo:hi:step")
    parser.add_argument("--p", type=str, default="1")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv")


def _verify_options(parser: argparse.ArgumentParser) -> None:
    _add_family_options(parser)
    parser.add_argument("--fn", type=str, required=True,
                        help="constant:<c> | extremal:<a> | blaschke:<seed|zeros> | coeffs:<file>")
    parser.add_argument("--gamma", type=float, required=True)
    parser.add_argument("--p", type=float, default=1.0)
    parser.add_argument("--r-beyond", dest="r_beyond", type=float, default=0.0,
                        help="extend the grid past the radius (sharpness probing)")
    parser.add_argument("--grid-points", dest="grid_points", type=int, default=16)
    parser.add_argument("--order", type=int, default=DEFAULT_ORDER)
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--tolerance", type=float, default=1e-9,
                        help="allowed excess over phi_0, relative to phi_0, before truncation allowance")


def _operator_options(parser: argparse.ArgumentParser) -> None:
    # one flag per operator family, --<name> V1 V2 ..., one text per parameter
    # (read in _operator_spec)
    for cls in _OPERATOR_CLASSES:
        params = dataclasses.fields(cls)
        parser.add_argument(f"--{cls.name}", nargs=len(params), metavar=tuple(f.name.upper() for f in params))
    parser.add_argument("action", choices=("apply", "bound", "radius"))
    parser.add_argument("--gamma", type=float, default=0.0)
    parser.add_argument("--p", type=float, default=1.0)
    parser.add_argument("--r", type=float, default=None)
    parser.add_argument("--coeffs", type=str, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)


def _suite_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default=None)
    parser.add_argument("--kind", choices=("inequality", "sharpness"), default="inequality")
    parser.add_argument("--out", type=str, default=None)


# command -> (help, the function that adds its options, handler)
_COMMANDS = {
    "radius": ("compute the sharp radius for a weight family", _radius_options, cmd_radius),
    "table": ("radius sweep over gamma/p/param ranges", _table_options, cmd_table),
    "verify": ("verify the weighted inequality for one function", _verify_options, cmd_verify),
    "operator": ("apply an operator, or print its bound/radius", _operator_options, cmd_operator),
    "suite": ("run the verification suite from a JSON config", _suite_options, cmd_suite),
}


def _command_parser(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Set parser up as command name's: its handler, its name as args.subcommand
    and its options."""
    # a value may start with a minus sign ("--delta -0.5,1", "--alpha -5e-1",
    # "--tolerance -inf"): on every command, read an argument that starts like
    # a number, an infinity or a nan as a value
    parser._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
    _, add_options, handler = _COMMANDS[name]
    parser.set_defaults(func=handler, subcommand=name)
    add_options(parser)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command, with its options."""
    parser = argparse.ArgumentParser(
        prog="bohrad",
        description="Sharp generalized Bohr radii on shifted disks, with operator radii.",
    )
    parser.add_argument("--version", action="version", version=f"bohrad {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _command_parser(sub.add_parser(name, help=help_text), name)
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """argv parsed as build_parser().parse_args(argv) does, with the named
    command's parser alone where that gives the same result.

    That parser is the one the top level hands argv[1:] to.  Arguments it
    leaves over are the top level's error, and "--=..." before any "--" is an
    ambiguous top-level option, so those calls, and a call that does not start
    with a command, are parsed by the full parser."""
    if argv and argv[0] in _COMMANDS:
        classified = argv[: argv.index("--")] if "--" in argv else argv
        if not any(token.startswith("--=") for token in classified):
            parser = _command_parser(argparse.ArgumentParser(prog=f"bohrad {argv[0]}"), argv[0])
            args, extras = parser.parse_known_args(argv[1:])
            if not extras:
                return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except NoRootError as exc:
        print(f"no root: {exc}", file=sys.stderr)
        return EXIT_NO_ROOT
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC if isinstance(exc, RuntimeError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
