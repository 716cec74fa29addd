"""Workload definitions shared by the driver and its worker processes.

Nothing here imports bohrad: the driver builds CLI argument lists and query
parameters from the seed alone, and only the workers load the library.
"""

from __future__ import annotations

import numpy as np

WORKDIR = "perfbench/.work"  # scratch files, relative to the checkout root

# why each workload is in the benchmark, and which per-layer metric should
# move which end-to-end metric on it (verify_per_s, queries_per_s and
# cli_p50_s are the report lines that restate latency_p50_ms per workload)
WORKLOADS = {
    "suite": {
        "why": "the default inequality suite's 84 cells with 25 Blaschke members + 7 fixed maps each: batch "
        "verification; series and bohr carry the load, radius does 84 solves",
        "moves": {
            "series": "series.* should move latency_p50_ms (verify_per_s) and cpu_s here, and nothing on radius",
            "bohr": "bohr.verify_self_s and bohr.matvec_flops should move latency_p50_ms (verify_per_s) here",
            "harness": "harness.self_s should move latency_p50_ms (verify_per_s) here",
            "kernels": "kernels.blaschke_series_* and kernels.binomial_transform_* should move latency_p50_ms here",
            "cli": "cli.import_* should move setup_s here, as on every workload",
        },
    },
    "radius": {
        "why": "closed-loop minimal_root queries over all nine families, like a table grid: "
        "all radius/weights/kernels and no series",
        "moves": {
            "radius": "radius.* should move latency_p50_ms (query_p50_ms), cpu_s and the query tail here",
            "weights": "weights.phi0_s and weights.tail_s should move latency_p50_ms and cpu_s here",
            "kernels": "kernels.alpha_phi0_* and kernels.bernardi_tail_* should move latency_p50_ms here; "
            "the traced edge probes (radius.failed, radius.failed_share, radius.edge_s) show the robustness defect",
            "series": "series.* should not move anything here",
            "cli": "cli.import_* should move setup_s here, as on every workload",
        },
    },
    "cli": {
        "why": "bohrad.cli commands (radius, table, verify, operator radius/apply, sharpness suite), each from "
        "a fresh post-import state: parsing, work and rendering; the import is setup_s",
        "moves": {
            "cli": "cli.main_self_s should move latency_p50_ms (cli_p50_s) and cpu_s here; cli.import_s and "
            "cli.import.scipy_signal_s should move setup_s",
            "operators": "operators.radius_s and operators.apply_s should move latency_p50_ms here",
            "weights": "weights.phi_vector_* and kernels.*_phi_table_* reach this workload through verify and sharpness",
        },
    },
}

FAMILIES = (
    "power-tail",
    "even",
    "odd",
    "linear-plus-one",
    "linear",
    "quadratic",
    "beta-cesaro",
    "alpha-cesaro",
    "bernardi",
)
GAMMAS = tuple(round(0.1 * i, 1) for i in range(10))
PS = (0.5, 1.0, 2.0)

# Typical parameter ranges.  alpha <= 0.75 and delta >= 0.5 keep every sharp
# radius below the last block of the radius scan (about 0.897); above it the
# term-loop weights raise RuntimeError after seconds.  That strip, and the
# rest of the validated domain's edge, is probed by edge_queries instead, so
# the timed sweep measures typical queries and the defect still shows.
BETA_RANGE = (0.25, 3.0)
ALPHA_RANGE = (-0.9, 0.75)
DELTA_RANGE = (0.5, 2.0)


def draw_params(rng: np.random.Generator, name: str) -> dict:
    if name in ("power-tail", "linear-plus-one", "linear", "quadratic"):
        return {"N": int(rng.integers(1, 6))}
    if name == "beta-cesaro":
        return {"beta": float(rng.uniform(*BETA_RANGE))}
    if name == "alpha-cesaro":
        return {"alpha": float(rng.uniform(*ALPHA_RANGE))}
    if name == "bernardi":
        return {"m": int(rng.integers(1, 4)), "delta": float(rng.uniform(*DELTA_RANGE))}
    return {}


def draw_query(rng: np.random.Generator) -> tuple:
    """(family name, params, gamma, p) from the typical range."""
    name = FAMILIES[int(rng.integers(len(FAMILIES)))]
    params = draw_params(rng, name)
    return name, params, GAMMAS[int(rng.integers(len(GAMMAS)))], PS[int(rng.integers(len(PS)))]


def sweep(seed: int, index: int, size: int) -> list:
    """The index-th sweep of size typical queries for this seed."""
    rng = np.random.default_rng([seed, index])
    return [draw_query(rng) for _ in range(size)]


def suite_seeds(seed: int, count: int) -> list:
    """Suite seeds for the count one-family, one-gamma suites of a timed suite round."""
    return np.random.default_rng([seed, 1 << 22]).integers(1 << 31, size=count).tolist()


def warmup_queries() -> list:
    """One fixed typical query per family, solved before timing starts; its gamma and p are off the sweep's grid."""
    rng = np.random.default_rng(1 << 30)
    return [(name, draw_params(rng, name), 0.55, 1.5) for name in FAMILIES]


def edge_queries(seed: int) -> list:
    """Domain-edge queries: the two known reproducers plus seeded draws near the edge."""
    rng = np.random.default_rng([seed, 1 << 20])
    m = int(rng.integers(1, 4))
    return [
        ("alpha-cesaro", {"alpha": 50.0}, 0.0, 1.0),
        ("bernardi", {"m": 1, "delta": -0.999}, 0.0, 1.0),
        ("alpha-cesaro", {"alpha": float(rng.uniform(2.0, 6.0))}, GAMMAS[int(rng.integers(10))], 2.0),
        ("bernardi", {"m": m, "delta": -m + float(rng.uniform(0.001, 0.1))}, GAMMAS[int(rng.integers(10))], 2.0),
        ("alpha-cesaro", {"alpha": float(rng.uniform(ALPHA_RANGE[1], 1.0))}, 0.9, 2.0),
        ("bernardi", {"m": 1, "delta": float(rng.uniform(0.0, DELTA_RANGE[0]))}, 0.9, 2.0),
    ]


def family_flags(name: str, params: dict) -> list:
    flags = ["--family", name]
    for key, value in params.items():
        flags.append(f"--{key}={value!r}")  # "=" keeps a negative value from reading as an option
    return flags


OPERATORS = ("beta-cesaro", "alpha-cesaro", "bernardi")


def operator_flags(rng: np.random.Generator, kind: str) -> tuple:
    """(CLI operator flags, lowest nonzero coefficient index) for a typical operator of this kind."""
    params = draw_params(rng, kind)
    if kind == "bernardi":
        return ["--bernardi", str(params["m"]), repr(params["delta"])], params["m"]
    return [f"--{kind}={next(iter(params.values()))!r}"], 0


def cli_pass(seed: int, rounds: int) -> list:
    """The seed's CLI calls as (label, argv, schema, coefficient file or None): rounds x 5 seeded calls + one sharpness suite.

    The sharpness suite takes no seeded input, so it runs once per pass.  The
    coefficient file named by an apply call must be written before the call;
    write_coefficients does that.
    """
    calls = [c for i in range(rounds) for c in cli_round(seed, i)]
    return calls + [("sharpness", ["suite", "--kind", "sharpness"], "suite_report", None)]


def cli_round(seed: int, index: int) -> list:
    """One round of five seeded CLI calls: radius, table, verify, operator radius and operator apply.

    Families, operators and the verify p go round by index, so any nine
    consecutive rounds hold the same mix of calls and only the parameters
    come from the seed.
    """
    rng = np.random.default_rng([seed, index, 7])
    name = FAMILIES[index % len(FAMILIES)]
    params = draw_params(rng, name)
    gamma, p = GAMMAS[int(rng.integers(len(GAMMAS)))], PS[int(rng.integers(len(PS)))]
    table_name = FAMILIES[(index + 4) % len(FAMILIES)]
    table_params = draw_params(rng, table_name)
    table_flags = ["--family", table_name]
    for i, (key, value) in enumerate(table_params.items()):
        values = [value] if i else [value, draw_params(rng, table_name)[key]]
        table_flags.append(f"--{key}=" + ",".join(repr(v) for v in values))
    alpha = float(rng.uniform(*ALPHA_RANGE))
    op_radius, _ = operator_flags(rng, OPERATORS[index % len(OPERATORS)])
    op_apply, low = operator_flags(rng, OPERATORS[(index + 1) % len(OPERATORS)])
    coeffs = f"{WORKDIR}/coeffs-{index}.txt"
    out = f"{WORKDIR}/applied-{index}.txt"
    return [
        ("radius", ["radius", *family_flags(name, params), "--gamma", repr(gamma), "--p", repr(p)],
         "radius_result", None),
        ("table", ["table", *table_flags, "--gamma", "0:0.9:0.3", "--p", "1,2", "--format", "jsonl"],
         "table_row", None),
        ("verify", ["verify", "--fn", f"blaschke:{int(rng.integers(1 << 31))}", "--family", "alpha-cesaro",
                    f"--alpha={alpha!r}", "--gamma", repr(GAMMAS[int(rng.integers(10))]),
                    "--p", repr(PS[index % len(PS)])],
         "bohr_report", None),
        ("operator-radius", ["operator", *op_radius, "radius", "--gamma", repr(GAMMAS[int(rng.integers(10))])],
         "operator_result", None),
        ("operator-apply", ["operator", *op_apply, "apply", "--coeffs", coeffs, "--out", out],
         "operator_result", (coeffs, low, int(rng.integers(1 << 31)))),
    ]


def write_coefficients(path: str, low: int, seed: int, count: int = 201) -> None:
    """Random coefficients of modulus below 1, zero below index low (Bernardi needs that)."""
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, size=(count, 2)) * 0.7
    coeffs[:low] = 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for re, im in coeffs.tolist():
            fh.write(f"{re!r} {im!r}\n")
