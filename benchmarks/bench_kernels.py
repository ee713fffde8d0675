"""Compare the numba kernels against the pure-numpy fallback.

Runs each solver on a few representative instances with both backends and
prints a timing table. Results (values, witnesses, node counts) must agree
exactly; the script asserts that before reporting. Without numba (or with
LINSYS_PURE_NUMPY set) it times the numpy kernels alone and reports numba
as absent.

Usage: python3 benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import time

import numpy as np

from linsys import (
    domination_number,
    extend_with_pendant_points,
    projective_plane,
    transversal_number,
    triangular_system,
    two_packing_number,
)
from linsys.kernels import JIT_KERNELS, PY_KERNELS


def cases():
    p3 = projective_plane(3).system
    p4 = projective_plane(4).system
    p5 = projective_plane(5).system
    tri9 = triangular_system(9)
    ext4 = extend_with_pendant_points(p4)
    yield "tau PG(2,3)", transversal_number, p3
    yield "tau PG(2,4)", transversal_number, p4
    yield "tau PG(2,5)", transversal_number, p5
    yield "gamma ext-PG(2,4)", domination_number, ext4
    yield "nu2 PG(2,4)", two_packing_number, p4
    yield "nu2 triangular-9", two_packing_number, tri9


def best_of(repeat, solve, sys_, kernels):
    result = None
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        result = solve(sys_, kernels=kernels)
        best = min(best, time.perf_counter() - start)
    return result, best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="repetitions, best kept")
    args = parser.parse_args()

    jit = JIT_KERNELS
    if jit is not None:
        # trigger compilation outside the timed region
        warm = projective_plane(2).system
        for solve in (transversal_number, domination_number, two_packing_number):
            solve(warm, kernels=jit)

    name_w = max(
        [len(name) for name, _, _ in cases()] + [len("pairwise 2000x512 bits")]
    )
    header = (
        f"{'case':<{name_w}}  {'value':>5}  {'nodes':>8}  "
        f"{'numpy ms':>9}  {'numba ms':>9}  {'speedup':>7}"
    )
    print(header)
    print("-" * len(header))

    def row(name, value, nodes, t_py, t_jit):
        if t_jit is None:
            jit_ms, speedup = "absent", "-"
        else:
            jit_ms, speedup = f"{t_jit * 1e3:.2f}", f"{t_py / t_jit:.1f}x"
        print(
            f"{name:<{name_w}}  {value:>5}  {nodes:>8}  "
            f"{t_py * 1e3:>9.2f}  {jit_ms:>9}  {speedup:>7}"
        )

    for name, solve, sys_ in cases():
        res_py, t_py = best_of(args.repeat, solve, sys_, PY_KERNELS)
        t_jit = None
        if jit is not None:
            res_jit, t_jit = best_of(args.repeat, solve, sys_, jit)
            assert res_py.value == res_jit.value
            assert res_py.witness == res_jit.witness
            assert res_py.nodes_explored == res_jit.nodes_explored
        row(name, res_py.value, res_py.nodes_explored, t_py, t_jit)

    # the other hot kernel: all-pairs |l_i & l_j| on a large bitset matrix
    rng = np.random.default_rng(0)
    blob = rng.integers(0, 2**64, size=(2000, 8), dtype=np.uint64)
    if jit is not None:
        jit.pairwise_intersections(blob[:4])
    t_py = float("inf")
    t_jit = None if jit is None else float("inf")
    for _ in range(args.repeat):
        start = time.perf_counter()
        a = PY_KERNELS.pairwise_intersections(blob)
        t_py = min(t_py, time.perf_counter() - start)
        if jit is not None:
            start = time.perf_counter()
            b = jit.pairwise_intersections(blob)
            t_jit = min(t_jit, time.perf_counter() - start)
            assert np.array_equal(a, b)
    row("pairwise 2000x512 bits", "-", "-", t_py, t_jit)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
