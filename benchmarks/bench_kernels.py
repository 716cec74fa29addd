#!/usr/bin/env python3
"""Time the numeric kernels (best of N repeats).

Usage:
    python benchmarks/bench_kernels.py [--repeats N] [--order M]

Also times one full (family, gamma, p) verification cell end to end, which is
the workload the kernels exist for.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from bohrad import _kernels
from bohrad.harness import SuiteConfig, run_inequality_suite
from bohrad.weights import PowerTail, BetaCesaro


def best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def kernel_cases(order):
    rng = np.random.default_rng(0)
    zeros = 0.8 * np.sqrt(rng.uniform(size=5)) * np.exp(2j * np.pi * rng.uniform(size=5))
    r_grid = np.linspace(0.0, 0.95, 512)
    return [
        ("beta_phi_table(b=1.5, r=0.9)", lambda: _kernels.beta_phi_table(1.5, 0.9, order)),
        ("alpha_phi_table(a=0.5, r=0.9)", lambda: _kernels.alpha_phi_table(0.5, 0.9, order)),
        ("beta_phi_scalar x200", lambda: [_kernels.beta_phi_scalar(1.5, k, 0.9) for k in range(200)]),
        ("alpha_phi0 on 512 radii", lambda: _kernels.alpha_phi0(0.5, r_grid)),
        ("bernardi_tail on 512 radii", lambda: _kernels.bernardi_tail(1, 1.0, r_grid)),
        ("blaschke_series(5 zeros, gamma=0.5)", lambda: _kernels.blaschke_series(zeros, 1.0 + 0j, order, 0.5)),
    ]


def suite_cell_case():
    config = SuiteConfig(
        samples_per_cell=200,
        gamma_grid=(0.25,),
        p_grid=(1.0,),
        families=(PowerTail(1), BetaCesaro(1.0)),
    )
    return lambda: run_inequality_suite(config)


def clear_caches():
    # results are cached at the weights/bohr layer; drop them so each repeat
    # does the whole cell
    from bohrad import bohr, weights

    weights._phi_vector_cached.cache_clear()
    weights.phi_tail_mass.cache_clear()
    bohr._phi_matrix.cache_clear()
    bohr._tail_allowance.cache_clear()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--order", type=int, default=200)
    args = parser.parse_args()

    rows = []
    for name, fn in kernel_cases(args.order):
        fn()  # warm the allocator
        rows.append((name, best_of(fn, args.repeats)))

    cell = suite_cell_case()
    clear_caches()
    cell()
    rows.append(("verification cell (200 fns x 2 families)",
                 best_of(lambda: (clear_caches(), cell()), max(2, args.repeats // 2))))

    width = max(len(name) for name, _ in rows)
    header = f"{'kernel':<{width}}  {'time':>12}"
    print(header)
    print("-" * len(header))
    for name, seconds in rows:
        print(f"{name:<{width}}  {seconds * 1e6:>10.1f}us")


if __name__ == "__main__":
    main()
