"""bohrad benchmark: suite, radius and cli workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1
    python3 perfbench/run.py --write-benchmark-json

Every workload is closed loop: one caller waits for each reply.  A run repeats
the same work until ``--seconds`` of it are timed and takes each operation's
fastest repeat, which the machine's slow spells do not reach.  With
``--trace 0`` the end-to-end metrics are measured untraced; with ``--trace 1``
a separate traced run of fixed work gives the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong result exits
with code 1; a checkout without ``src/bohrad`` exits with code 2.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import worker
import workloads
from tracer import KERNELS

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / workloads.WORKDIR
SCHEMAS = ROOT / "src" / "bohrad" / "schemas"
WORKER = ["perfbench/worker.py"]

SETUP_REPEATS = 5  # fresh-interpreter imports per run; setup_s is their median
IMPORT_REPEATS = 3  # -X importtime probes per traced run
TRACED_QUERIES = worker.SWEEP  # one seeded radius sweep in the traced run
RUN_SECONDS = 20  # timed seconds per run, as BENCHMARK.json tells the driver
RUN_LIMIT_S = 170.0  # every run ends inside the 180 s the driver allows

END_TO_END = [
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

_KERNEL_METRICS = [
    (f"kernels.{kernel}{suffix}", unit, "lower") for kernel in KERNELS for suffix, unit in (("_calls", "count"), ("_s", "s"))
]

PER_LAYER = [
    {"name": name, "unit": unit, "better": better}
    for name, unit, better in [
        ("series.coeff_calls", "count", "lower"),
        ("series.coeff_s", "s", "lower"),
        ("series.terms", "count", "lower"),
        ("series.blaschke_s", "s", "lower"),
        ("series.blaschke_zeros", "count", "lower"),
        ("series.compose_s", "s", "lower"),
        ("series.cap_s", "s", "lower"),
        ("series.extremal_s", "s", "lower"),
        ("series.self_s", "s", "lower"),
        ("bohr.verify_calls", "count", "higher"),
        ("bohr.verify_self_s", "s", "lower"),
        ("bohr.matvec_flops", "flop", "lower"),
        ("bohr.phi_matrix_hit_ratio", "ratio", "higher"),
        ("bohr.self_s", "s", "lower"),
        ("radius.roots", "count", "higher"),
        ("radius.root_s", "s", "lower"),
        ("radius.evaluations", "count", "lower"),
        ("radius.gap_calls", "count", "lower"),
        ("radius.gap_points", "count", "lower"),
        ("radius.no_root", "count", "lower"),
        ("radius.failed", "count", "lower"),
        ("radius.failed_share", "ratio", "lower"),
        ("radius.edge_s", "s", "lower"),
        ("radius.self_s", "s", "lower"),
        ("weights.phi0_s", "s", "lower"),
        ("weights.tail_s", "s", "lower"),
        ("weights.phi_vector_calls", "count", "lower"),
        ("weights.phi_vector_s", "s", "lower"),
        ("weights.phi_vector_hit_ratio", "ratio", "higher"),
        ("weights.self_s", "s", "lower"),
        *_KERNEL_METRICS,
        ("kernels.self_s", "s", "lower"),
        ("operators.radius_s", "s", "lower"),
        ("operators.apply_s", "s", "lower"),
        ("operators.self_s", "s", "lower"),
        ("harness.cells", "count", "higher"),
        ("harness.self_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
        ("cli.import.scipy_signal_s", "s", "lower"),
        ("cli.import.scipy_special_s", "s", "lower"),
        ("cli.main_self_s", "s", "lower"),
        ("traced_wall_s", "s", "lower"),
        ("tracing_overhead_s", "s", "lower"),
    ]
]


class WrongResult(Exception):
    """A correctness gate failed."""


class Runner:
    """Runs child processes from the checkout root and keeps the run's deadline."""

    def __init__(self):
        self.env = {k: v for k, v in os.environ.items() if k != "BOHR_SEED"}  # it would override the seed
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["TMPDIR"] = str(WORK / "tmp")
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def run(self, argv: list) -> tuple:
        """(completed process, wall seconds, child CPU seconds) for one child."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=max(1.0, self.deadline - start),
        )
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return proc, wall, cpu

    def worker(self, *args) -> tuple:
        """(parsed JSON result, wall, CPU) of a worker run that must succeed."""
        proc, wall, cpu = self.run([*WORKER, *map(str, args)])
        if proc.returncode != 0:
            raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), wall, cpu


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def tail(samples) -> tuple | None:
    """Highest of p99.9/p99/p90 with at least ten samples beyond it, as (label, value)."""
    for q in (99.9, 99.0, 90.0):
        if len(samples) * (100.0 - q) / 100.0 >= 10:
            return f"p{q:g}", float(np.percentile(samples, q))
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    import scipy

    threads = {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git without leaving it, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# correctness gates, all outside the timed sections

def check_suite(data: dict) -> None:
    problems = []
    if not data["overall_pass"]:
        problems.append("overall_pass is false")
    if data["controls_ok"] is not True:
        problems.append(f"controls_ok is {data['controls_ok']}")
    if data["cells"] != 84:
        problems.append(f"{data['cells']} cells, expected 84")
    if data["bad_cells"]:
        problems.append(f"{data['bad_cells']} cells without n_pass + n_fail = samples + 7")
    if problems:
        raise WrongResult("suite: " + "; ".join(problems))


def check_radius(data: dict) -> None:
    if data["gate_errors"]:
        raise WrongResult(f"radius: {len(data['gate_errors'])} gate errors, first: {data['gate_errors'][0]}")


def load_validators() -> dict:
    try:
        import jsonschema
    except ImportError:
        raise WrongResult("jsonschema is needed to check the CLI output") from None
    validators = {}
    for path in SCHEMAS.glob("*.schema.json"):
        schema = json.loads(path.read_text())
        validators[path.name[: -len(".schema.json")]] = jsonschema.validators.validator_for(schema)(schema)
    return validators


def check_cli_call(validators: dict, label: str, schema: str, code: int, stdout: str, stderr: str) -> bool:
    """True for a failed operation; raise WrongResult on a wrong result.

    A failed operation is the CLI's own error exit (code 2, "error: ...") or a
    table row with an error other than "no root".  Any other exit code,
    argparse usage errors included, is a wrong result.
    """
    if code == 2 and stderr.startswith("error:"):
        return True
    if code != 0:
        raise WrongResult(f"cli {label}: exit code {code}, expected 0: {stderr[-500:]}")
    docs = [json.loads(line) for line in stdout.splitlines()] if schema == "table_row" else [json.loads(stdout)]
    if not docs:
        raise WrongResult(f"cli {label}: no output")
    for doc in docs:
        errors = list(validators[schema].iter_errors(doc))
        if errors:
            raise WrongResult(f"cli {label}: output fails {schema}.schema.json: {errors[0].message}")
        if "error" in doc and not doc["error"].startswith("no root"):
            return True
    if label == "operator-apply":
        doc = docs[0]
        lines = (ROOT / doc["out"]).read_text().splitlines()
        if len(lines) != doc["n_coefficients"] or len((ROOT / doc["coeffs"]).read_text().splitlines()) != len(lines):
            raise WrongResult(f"cli {label}: {len(lines)} coefficients written, {doc['n_coefficients']} reported")
    if label == "sharpness" and not docs[0]["overall_pass"]:
        raise WrongResult("cli sharpness: overall_pass is false")
    return False


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics

def setup_times(h: Runner) -> list:
    h.worker("import")  # first import in a fresh checkout also writes bytecode
    return [h.worker("import")[0]["import_s"] for _ in range(SETUP_REPEATS)]


def measure_suite(h: Runner, seed: int, seconds: float) -> dict:
    data, _, _ = h.worker("suite", "--seed", seed, "--seconds", seconds)
    check_suite(data)
    if data["unrepeated_rounds"]:
        raise WrongResult(f"suite: {data['unrepeated_rounds']} rounds gave other verdicts than the first")
    rounds = len(data["latencies"])
    grid = float(np.min(data["latencies"], axis=0).sum())  # each suite's fastest round, summed over the grid
    return {
        "latencies": [grid],
        "cpus": [float(np.min(data["cpu"], axis=0).sum())],
        "cpu_total": float(np.sum(data["cpu"])),
        "wall": data["wall_s"],
        "ops": data["verifications"],
        "attempted": rounds,
        "failed": 0,
        "extra": {"rounds": (rounds, "count"), "verify_per_s": (data["verifications"] / data["wall_s"], "1/s"),
                  "median_all_repeats_ms": (float(np.median(np.sum(data["latencies"], axis=1))) * 1e3, "ms")},
    }


def measure_radius(h: Runner, seed: int, seconds: float) -> dict:
    data, _, _ = h.worker("radius", "--seed", seed, "--seconds", seconds)
    check_radius(data)
    rounds, n = len(data["latencies"]), len(data["latencies"][0])
    best = np.min(data["latencies"], axis=0)  # each query's fastest round
    ms = best * 1e3
    extra = {
        "rounds": (rounds, "count"),
        "queries_per_s": (rounds * n / data["wall_s"], "1/s"),
        "query_p50_ms": (float(np.median(ms)), "ms"),
        "query_p99_ms": (float(np.percentile(ms, 99)), "ms"),
        "median_all_repeats_ms": (float(np.median(data["latencies"])) * 1e3, "ms"),
        "no_root": (data["no_root"], "count"),
    }
    for failure in data["failed"][:5]:
        print(f"  failed query: {failure}")
    return {
        "latencies": best,
        "cpus": np.min(data["cpu"], axis=0),
        "cpu_total": float(np.sum(data["cpu"])),
        "wall": data["wall_s"],
        "ops": rounds * n,
        "attempted": rounds * n,
        "failed": len(data["failed"]),
        "extra": extra,
    }


def measure_cli(h: Runner, seed: int, seconds: float) -> dict:
    validators = load_validators()
    data, _, _ = h.worker("cli", "--seed", seed, "--seconds", seconds)
    calls = workloads.cli_pass(seed, worker.CLI_ROUNDS)
    failed = 0
    for results in data["results"]:
        for (label, _, schema, _), r in zip(calls, results):
            failed += check_cli_call(validators, label, schema, r["code"], r["stdout"], r["stderr"])
    rounds = len(data["latencies"])
    best = np.min(data["latencies"], axis=0)  # each call's fastest repeat
    return {
        "latencies": [float(best.sum())],  # one pass over the calls
        "cpus": [float(np.min(data["cpu"], axis=0).sum())],
        "cpu_total": float(np.sum(data["cpu"])),
        "wall": data["wall_s"],
        "ops": rounds * len(calls),
        "attempted": rounds * len(calls),
        "failed": failed,
        "extra": {"rounds": (rounds, "count"), "cli_p50_s": (float(np.median(best)), "s"),
                  "median_all_repeats_ms": (float(np.median(np.sum(data["latencies"], axis=1))) * 1e3, "ms")},
    }


MEASURE = {"suite": measure_suite, "radius": measure_radius, "cli": measure_cli}


def end_to_end(h: Runner, name: str, seed: int, seconds: float) -> tuple:
    setup = setup_times(h)
    m = MEASURE[name](h, seed, seconds)
    lat_ms = np.array(m["latencies"]) * 1e3
    metrics = {
        "latency_p50_ms": (float(np.median(lat_ms)), "ms"),
        "cpu_s": (float(np.median(m["cpus"])), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (float(np.median(setup)), "s"),
    }
    counts = {"latency_p50_ms": len(lat_ms), "cpu_s": len(m["cpus"]), "peak_rss_mb": 1, "setup_s": len(setup)}
    print(f"requests: {m['attempted']} in {m['wall']:.3f} s timed; failed_share {m['failed'] / m['attempted']:.4g}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<24} {value:>14.6g} {unit:<6} n={counts[key]}")
    # reported, not bounded: too noisy on a shared machine, or a restatement of the above
    t = tail(lat_ms)
    print(f"  {'latency_' + t[0] + '_ms':<24} {t[1]:>14.6g} ms     n={len(lat_ms)}" if t else
          f"  (no latency percentile has ten samples beyond it at n={len(lat_ms)})")
    print(f"  {'ops_per_s':<24} {m['ops'] / m['wall']:>14.6g} 1/s    n={m['ops']}")
    print(f"  {'cpu_per_wall':<24} {m['cpu_total'] / m['wall']:>14.6g} ratio  (BLAS threads show here)")
    for key, (value, unit) in m["extra"].items():
        print(f"  {key:<24} {value:>14.6g} {unit}")
    return metrics, m["attempted"], m["failed"]


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics

def import_profile(h: Runner) -> dict:
    """Median -X importtime seconds for bohrad.cli and the scipy packages it pulls in.

    A package counts with the cumulative time of its own line.  Where that line
    is missing (scipy.special loads lazily and logs only its submodules), it
    counts with the self time of its modules.  A package no longer imported
    counts 0.
    """
    wanted = {"bohrad.cli": "cli.import_s", "scipy.signal": "cli.import.scipy_signal_s",
              "scipy.special": "cli.import.scipy_special_s"}
    samples = {key: [] for key in wanted.values()}
    for _ in range(IMPORT_REPEATS):
        proc, _, _ = h.run(["-X", "importtime", "-c", "import bohrad.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"import bohrad.cli failed:\n{proc.stderr[-3000:]}")
        cumulative, own = {}, dict.fromkeys(wanted, 0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            module = parts[2].strip()
            package = module if module in wanted else module.rpartition(".")[0]
            while package and package not in wanted:
                package = package.rpartition(".")[0]
            if package:
                own[package] += int(parts[0].split(":")[1])
            if module in wanted:
                cumulative[module] = int(parts[1])
        for module, key in wanted.items():
            samples[key].append(cumulative.get(module, own[module]) / 1e6)
    return {key: statistics.median(v) for key, v in samples.items()}


def traced(h: Runner, name: str, seed: int) -> tuple:
    layers = import_profile(h)
    spans = str(WORK / f"spans-{name}.npz")
    if name == "suite":
        plain, _, _ = h.worker("suite", "--seed", seed)
        data, _, _ = h.worker("suite", "--seed", seed, "--trace", spans)
        for d in (plain, data):
            check_suite(d)
        base, run_s, attempted, failed = plain["run_s"], data["run_s"], 2, 0
        roots = data["layers"]["radius.roots"]
        if data["layers"]["bohr.verify_calls"] != 84 * 508 or roots != 84 or data["verifications"] != 84 * 508:
            raise WrongResult(
                f"tracer self-check: {data['layers']['bohr.verify_calls']} verify calls and {roots} roots "
                f"traced, {data['verifications']} verifications reported; expected 42672 and 84"
            )
        cover = ("series", "bohr")
    elif name == "radius":
        plain, _, _ = h.worker("radius", "--seed", seed, "--queries", TRACED_QUERIES)
        data, _, _ = h.worker("radius", "--seed", seed, "--queries", TRACED_QUERIES, "--trace", spans)
        for d in (plain, data):
            check_radius(d)
        base, run_s = plain["wall_s"], data["wall_s"]
        attempted, failed = 2 * TRACED_QUERIES, len(plain["failed"]) + len(data["failed"])
        edges = data["edges"]
        for edge in edges:
            print(f"  edge query {edge['query']}: {edge['outcome']} after {edge['seconds']:.3f} s")
        layers["radius.edge_s"] = sum(e["seconds"] for e in edges)
        layers["radius.failed_share"] = data["layers"]["radius.failed"] / (TRACED_QUERIES + len(edges))
        print(f"  failed_share {layers['radius.failed_share']:.4g}: {data['layers']['radius.failed']} failed "
              f"of {TRACED_QUERIES} typical + {len(edges)} edge queries")
        cover = ("radius", "weights", "kernels")
    else:
        validators = load_validators()
        plain, _, _ = h.worker("cli", "--seed", seed)
        data, _, _ = h.worker("cli", "--seed", seed, "--trace", spans)
        calls = workloads.cli_pass(seed, worker.CLI_ROUNDS)
        failed = 0
        for d in (plain, data):
            for (label, _, schema, _), r in zip(calls, d["results"]):
                failed += check_cli_call(validators, label, schema, r["code"], r["stdout"], r["stderr"])
        base, run_s, attempted = plain["run_s"], data["run_s"], 2 * len(calls)
        cover = ("cli", "operators", "harness", "radius", "weights", "kernels", "bohr", "series")
    layers.update(data["layers"])
    layers["traced_wall_s"] = run_s
    layers["tracing_overhead_s"] = run_s - base
    if data["absent"]:
        print(f"  absent at this commit (reported as 0): {', '.join(data['absent'])}")
    share = sum(layers[f"{layer}.self_s"] for layer in cover) / run_s
    print(f"  self time of {'+'.join(cover)}: {share:.1%} of the traced wall {run_s:.3f} s "
          f"(untraced {base:.3f} s); spans in {Path(spans).relative_to(ROOT)}")
    metrics = {}
    for spec in PER_LAYER:
        value = layers.get(spec["name"], 0)
        metrics[spec["name"]] = (value, spec["unit"])
        print(f"  {spec['name']:<32} {value:>14.6g} {spec['unit']}")
    return metrics, attempted, failed


# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    h = Runner()
    print(f"== {name} seed={seed} seconds={seconds:g} trace={int(trace)}: {workloads.WORKLOADS[name]['why']}")
    print("env: " + json.dumps(environment(seed), sort_keys=True))
    correct = True
    try:
        metrics, attempted, failed = traced(h, name, seed) if trace else end_to_end(h, name, seed, seconds)
    except WrongResult as exc:
        print(f"WRONG RESULT: {exc}")
        correct, metrics, attempted, failed = False, {}, 1, 0
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in workloads.WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def record(path: Path, name: str, seed: int, trace: bool, result: dict) -> None:
    """Merge one run into a results file with the environment, reasons and predictions."""
    doc = json.loads(path.read_text()) if path.is_file() else {"environment": environment(seed), "workloads": {}}
    entry = doc["workloads"].setdefault(name, dict(workloads.WORKLOADS[name]))
    entry["per_layer" if trace else "end_to_end"] = {"seed": seed, **result}
    path.write_text(json.dumps(doc, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None, help="merge results into this JSON file")
    parser.add_argument("--write-benchmark-json", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args()
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "bohrad" / "__init__.py").is_file():
        print(f"no bohrad source tree under {ROOT / 'src'}: nothing to benchmark", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, as the driver runs them: peak RSS and child
        # CPU are read from this process's finished children
        ok = True
        for name in workloads.WORKLOADS:
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if args.record:
                argv += ["--record", str(args.record.resolve())]
            ok &= subprocess.run(argv, cwd=ROOT).returncode == 0
        return 0 if ok else 1
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.record:
        record(args.record, args.workload, args.seed, bool(args.trace), result)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
