"""Worker process for one benchmark request batch; prints one JSON object.

Run from the checkout root with PYTHONPATH=src, as perfbench/run.py does:

    python perfbench/worker.py import
    python perfbench/worker.py suite|radius|cli --seed 1 --seconds 20   # timed, in forked rounds
    python perfbench/worker.py suite --seed 1 [--trace FILE]            # one default suite
    python perfbench/worker.py radius --seed 1 --queries 2000 [--trace FILE]
    python perfbench/worker.py cli --seed 1 [--trace FILE]    # in process, through bohrad.cli.main

A timed run repeats the same operations in rounds until --seconds of them are
timed.  Each round, or each CLI call, is a child forked from this process
after it has imported bohrad, so every repeat starts from the same state and
does the same work; the driver takes each operation's fastest repeat.

The library is driven only through its public API: make_family, RadiusQuery,
DomainParams, minimal_root, gap, NoRootError, default_config,
run_inequality_suite and bohrad.cli.main.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import time
import traceback
from array import array
from contextlib import redirect_stderr, redirect_stdout

import workloads

SWEEP = 2000  # queries per seeded radius sweep, like one table grid
ROUND = 500  # queries per timed radius round: short rounds give each query many repeats
SUITE_SAMPLES = 25  # random members per cell in a timed suite round: the default grid in about 0.5 s
MIN_ROUNDS = 3  # rounds per timed run, at the least
CLI_ROUNDS = 9  # seeded rounds in one pass of the cli workload: every family and operator in each role
DETERMINISTIC_PER_CELL = 7  # four constants and three extremal maps verified in every suite cell


def cmd_import(args) -> dict:
    start = time.perf_counter()
    import bohrad  # noqa: F401

    return {"import_s": time.perf_counter() - start}


def _start_tracer(name: str):
    from tracer import Tracer

    tracer = Tracer(name)
    tracer.install()
    return tracer


def _finish_tracer(tracer, path: str) -> dict:
    tracer.uninstall()
    tracer.save(path)
    return {"layers": tracer.layer_metrics(), "absent": sorted(set(tracer.absent))}


def _timed(fn) -> tuple:
    """(fn(), wall seconds, process CPU seconds, BLAS threads included)."""
    c0, t0 = time.process_time(), time.perf_counter()
    out = fn()
    t1, c1 = time.perf_counter(), time.process_time()
    return out, t1 - t0, c1 - c0


def _repeat(round_fn, seconds: float) -> list:
    """round_fn(first) results until their timed seconds reach seconds, MIN_ROUNDS at the least."""
    rounds, timed = [], 0.0
    while len(rounds) < MIN_ROUNDS or timed < seconds:
        rounds.append(round_fn(not rounds))
        timed += sum(rounds[-1]["latencies"])
    return rounds


def _in_child(fn):
    """fn() run in a forked child, which starts from this process's state; its result goes back as JSON.

    The only other threads here are OpenBLAS's, which its own fork handler
    stops before the fork.  The child never returns into the caller: it exits
    with status 1 after printing any exception.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as fh:
                json.dump(fn(), fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"forked round exited with status {status}")
    return json.loads(text)


def _suite_summary(report, samples: int) -> dict:
    expected = samples + DETERMINISTIC_PER_CELL
    live = [c for c in report.cells if c.skipped is None]
    return {
        "cells": len(report.cells),
        "bad_cells": sum(c.n_pass + c.n_fail != expected for c in live),
        "overall_pass": bool(report.overall_pass),
        "controls_ok": report.controls_ok,
        "verifications": sum(c.n_pass + c.n_fail for c in live) + sum(c.control_ok is not None for c in live),
        "outcomes": [(c.n_pass, c.n_fail) for c in report.cells],
    }


def cmd_suite(args) -> dict:
    """One default suite, traced or not; --seconds runs cmd_suite_rounds instead."""
    if args.seconds is not None:
        return cmd_suite_rounds(args)
    import bohrad

    config = bohrad.default_config(seed=args.seed)
    tracer = _start_tracer("suite") if args.trace else None
    start = time.perf_counter()
    report = bohrad.run_inequality_suite(config)
    run_s = time.perf_counter() - start
    out = _finish_tracer(tracer, args.trace) if tracer else {}
    out.update(run_s=run_s, **_suite_summary(report, config.samples_per_cell))
    return out


def cmd_suite_rounds(args) -> dict:
    """The default suite's grid at SUITE_SAMPLES members per cell, one suite per family and gamma.

    A round runs the 36 suites in the default grid's order, each timed alone.
    The first round's verdicts are checked; later rounds must repeat them.
    """
    import bohrad

    base = bohrad.default_config()
    pairs = [(family, gamma) for family in base.families for gamma in base.gamma_grid]
    seeds = workloads.suite_seeds(args.seed, len(pairs))
    configs = [
        bohrad.default_config(seed=seed, samples_per_cell=SUITE_SAMPLES, families=(family,), gamma_grid=(gamma,))
        for (family, gamma), seed in zip(pairs, seeds)
    ]
    # lazy imports and first-call set-up before any round, off the grid so no round finds its cells cached
    bohrad.run_inequality_suite(
        bohrad.default_config(samples_per_cell=1, families=base.families[:1], gamma_grid=(0.1,), p_grid=(1.5,))
    )

    def one_round() -> dict:
        timed = [_timed(lambda c=c: bohrad.run_inequality_suite(c)) for c in configs]
        summaries = [_suite_summary(report, SUITE_SAMPLES) for report, _, _ in timed]
        return {
            "latencies": [wall for _, wall, _ in timed],
            "cpu": [cpu for _, _, cpu in timed],
            "cells": sum(m["cells"] for m in summaries),
            "bad_cells": sum(m["bad_cells"] for m in summaries),
            "overall_pass": all(m["overall_pass"] for m in summaries),
            "controls_ok": all(m["controls_ok"] is True for m in summaries),
            "verifications": sum(m["verifications"] for m in summaries),
            "outcomes": [m["outcomes"] for m in summaries],
        }

    rounds = _repeat(lambda first: _in_child(one_round), args.seconds)
    first = rounds[0]
    return {
        "wall_s": float(sum(map(sum, (r["latencies"] for r in rounds)))),
        "latencies": [r["latencies"] for r in rounds],
        "cpu": [r["cpu"] for r in rounds],
        "cells": first["cells"],
        "bad_cells": first["bad_cells"],
        "overall_pass": first["overall_pass"],
        "controls_ok": first["controls_ok"],
        "verifications": sum(r["verifications"] for r in rounds),
        "unrepeated_rounds": sum(r["outcomes"] != first["outcomes"] for r in rounds),
    }


def _radius_gates(bohrad, solved) -> list:
    """Bracket certificate on every solved query, and closed-form anchors.

    power-tail N=1 has radius p(1+g)/(2+p(1+g)); even has its square root.
    """
    errors = []
    for spec, query, result in solved:
        lo, hi = result.bracket
        if not (bohrad.gap(query, lo) > 0.0 >= bohrad.gap(query, hi)):
            errors.append(f"bracket not certified for {spec}: {result.bracket}")
        name, params, g, p = spec
        if (name, params) in (("power-tail", {"N": 1}), ("even", {})):
            closed = p * (1.0 + g) / (2.0 + p * (1.0 + g))
            closed = math.sqrt(closed) if name == "even" else closed
            if abs(result.radius - closed) > 1e-11:
                errors.append(f"{name} gamma={g} p={p}: radius {result.radius!r} != closed form {closed!r}")
    return errors


def _solve(bohrad, spec):
    name, params, g, p = spec
    query = bohrad.RadiusQuery(bohrad.make_family(name, params), bohrad.DomainParams(g), p)
    return query, bohrad.minimal_root(query)


def _run_sweep(bohrad, specs, tracer=None) -> dict:
    """Solve specs in order, each timed alone; solved holds (spec, query, result)."""
    latencies, cpu = array("d"), array("d")
    solved, failed, no_root = [], [], 0
    for i, spec in enumerate(specs):
        if tracer:
            tracer.request = i
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            solved.append((spec, *_solve(bohrad, spec)))
        except bohrad.NoRootError:
            no_root += 1
        except Exception as exc:  # any other outcome is a failed query
            failed.append(f"{spec}: {type(exc).__name__}: {exc}")
        t1, c1 = time.perf_counter(), time.process_time()
        latencies.append(t1 - t0)
        cpu.append(c1 - c0)
    return {"latencies": latencies, "cpu": cpu, "solved": solved, "no_root": no_root, "failed": failed}


def _anchor_errors(bohrad) -> list:
    anchors = [("power-tail", {"N": 1}, g, p) for g in workloads.GAMMAS for p in workloads.PS]
    anchors += [("even", {}, g, p) for g in workloads.GAMMAS for p in workloads.PS]
    return _radius_gates(bohrad, [(spec, *_solve(bohrad, spec)) for spec in anchors])


def cmd_radius_rounds(args) -> dict:
    """Repeat one seeded sweep of ROUND queries in forked rounds until --seconds of query time.

    Every round starts from the same warmed-up state, so it does the same
    work with the same cache hits, and a query's fastest round is its time
    without the machine's slow spells.  Gates and the check that every round
    gives the same radii run outside the timed queries.
    """
    import bohrad

    for spec in workloads.warmup_queries():  # lazy imports and first-call set-up, before any round
        try:
            _solve(bohrad, spec)
        except bohrad.NoRootError:
            pass
    specs = workloads.sweep(args.seed, 0, ROUND)

    def one_round(gate: bool) -> dict:
        r = _run_sweep(bohrad, specs)
        radii = [result.radius for _, _, result in r["solved"]]
        errors = _radius_gates(bohrad, r["solved"]) if gate else []
        return {"latencies": r["latencies"].tolist(), "cpu": r["cpu"].tolist(), "no_root": r["no_root"],
                "failed": r["failed"], "radii": radii, "gate_errors": errors}

    rounds = _repeat(lambda first: _in_child(lambda: one_round(gate=first)), args.seconds)
    errors = [e for r in rounds for e in r["gate_errors"]]
    errors += [f"round {i} gave other radii than round 0" for i, r in enumerate(rounds)
               if (r["radii"], r["no_root"]) != (rounds[0]["radii"], rounds[0]["no_root"])]
    errors += _anchor_errors(bohrad)
    return {
        "wall_s": float(sum(map(sum, (r["latencies"] for r in rounds)))),
        "latencies": [r["latencies"] for r in rounds],
        "cpu": [r["cpu"] for r in rounds],
        "no_root": sum(r["no_root"] for r in rounds),
        "failed": [f for r in rounds for f in r["failed"]],
        "gate_errors": errors,
    }


def cmd_radius(args) -> dict:
    """One sweep of --queries, traced or not; --seconds runs cmd_radius_rounds instead.

    Traced, nothing is checked (the untraced twin of the same sweep is), and
    the domain-edge probes run after the sweep.
    """
    if args.seconds is not None:
        return cmd_radius_rounds(args)
    import bohrad

    tracer = _start_tracer("radius") if args.trace else None
    specs = workloads.sweep(args.seed, 0, args.queries)
    r = _run_sweep(bohrad, specs, tracer)
    out = {}
    if tracer:
        layers = tracer.layer_metrics()  # the typical sweep only
        edges = []
        for spec in workloads.edge_queries(args.seed):
            tracer.request = len(specs) + len(edges)
            t0 = time.perf_counter()
            try:
                _solve(bohrad, spec)
                outcome = "radius"
            except Exception as exc:  # NoRootError is a valid outcome; the rest are failures
                outcome = type(exc).__name__
            edges.append({"query": repr(spec), "outcome": outcome, "seconds": time.perf_counter() - t0})
        out = _finish_tracer(tracer, args.trace)
        layers["radius.no_root"] += sum(e["outcome"] == "NoRootError" for e in edges)
        layers["radius.failed"] += sum(e["outcome"] not in ("radius", "NoRootError") for e in edges)
        out.update(layers=layers, edges=edges, gate_errors=[])
    else:
        out["gate_errors"] = _radius_gates(bohrad, r["solved"]) + _anchor_errors(bohrad)
    out.update(wall_s=sum(r["latencies"]), no_root=r["no_root"], failed=r["failed"])
    return out


def _cli_call(main, argv: list) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code, wall, cpu = _timed(lambda: main(argv))
    return {"latency": wall, "cpu": cpu, "code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def cmd_cli_rounds(args) -> dict:
    """The seed's pass of CLI calls, repeated; each call is its own child of the imported bohrad.cli.

    A call starts from the state a fresh `python -m bohrad.cli` has after its
    imports, which setup_s times; so lazy set-up and caches are cold in every
    call.  Every call's exit code and output go back for the driver to check.
    """
    import bohrad.cli

    calls = workloads.cli_pass(args.seed, CLI_ROUNDS)
    for _, _, _, coeffs in calls:
        if coeffs:
            workloads.write_coefficients(*coeffs)

    def one_round(first: bool) -> dict:
        results = [_in_child(lambda argv=argv: _cli_call(bohrad.cli.main, argv)) for _, argv, _, _ in calls]
        return {"latencies": [r.pop("latency") for r in results], "cpu": [r.pop("cpu") for r in results],
                "results": results}

    rounds = _repeat(one_round, args.seconds)
    return {
        "wall_s": float(sum(map(sum, (r["latencies"] for r in rounds)))),
        "latencies": [r["latencies"] for r in rounds],
        "cpu": [r["cpu"] for r in rounds],
        "results": [r["results"] for r in rounds],
    }


def cmd_cli(args) -> dict:
    """One pass of CLI calls in this process, traced or not; --seconds runs cmd_cli_rounds instead."""
    if args.seconds is not None:
        return cmd_cli_rounds(args)
    import bohrad.cli

    calls = workloads.cli_pass(args.seed, CLI_ROUNDS)
    for _, _, _, coeffs in calls:
        if coeffs:
            workloads.write_coefficients(*coeffs)
    tracer = _start_tracer("cli") if args.trace else None
    results = []
    start = time.perf_counter()
    for i, (label, argv, _, _) in enumerate(calls):
        if tracer:
            tracer.request = i
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = bohrad.cli.main(argv)
        results.append({"label": label, "code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()})
    run_s = time.perf_counter() - start
    out = _finish_tracer(tracer, args.trace) if tracer else {}
    out.update(run_s=run_s, results=results)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("import", "suite", "radius", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--trace", default=None, help="write spans to this .npz file")
    args = parser.parse_args()
    handler = {"import": cmd_import, "suite": cmd_suite, "radius": cmd_radius, "cli": cmd_cli}[args.mode]
    sys.stdout.write(json.dumps(handler(args)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
