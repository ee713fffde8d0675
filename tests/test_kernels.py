import ast
import inspect
import random
import tracemalloc

import numpy as np
import pytest

from linsys import (
    LinearSystem,
    domination_number,
    extend_with_pendant_points,
    projective_plane,
    transversal_number,
    triangular_system,
    two_packing_number,
)
from linsys import kernels
from linsys.kernels import ACTIVE, JIT_KERNELS, PY_KERNELS
from linsys.solvers import _closed_neighbourhoods, _gamma_seed, _incidence, _tau_seed

from corpus import build_corpus
from oracles import reference_cover_search

BACKENDS = [PY_KERNELS] + ([JIT_KERNELS] if JIT_KERNELS is not None else [])


def test_active_backend_selection():
    assert ACTIVE in BACKENDS
    assert PY_KERNELS.name == "numpy"
    if JIT_KERNELS is not None:
        assert JIT_KERNELS.name == "numba"
        assert ACTIVE is JIT_KERNELS


def test_pairwise_matches_set_arithmetic(fano):
    counts = ACTIVE.pairwise_intersections(_incidence(fano.line_tuples, fano.num_points))
    for i in range(7):
        for j in range(7):
            assert counts[i, j] == len(set(fano.line_tuples[i]).intersection(fano.line_tuples[j]))


@pytest.mark.skipif(JIT_KERNELS is None, reason="numba unavailable")
def test_solver_backends_identical_on_corpus():
    # identical values, witnesses, and node counts: the jit path must be a
    # compilation of the python path, not a reimplementation
    sample = build_corpus()[::9]
    assert len(sample) >= 10
    for sys_ in sample:
        for solve in (transversal_number, domination_number, two_packing_number):
            if sys_.num_lines == 0 and solve is not domination_number:
                continue
            a = solve(sys_, kernels=PY_KERNELS)
            b = solve(sys_, kernels=JIT_KERNELS)
            assert a.value == b.value
            assert a.witness == b.witness
            assert a.nodes_explored == b.nodes_explored


@pytest.mark.skipif(JIT_KERNELS is None, reason="numba unavailable")
def test_solver_backends_identical_on_plane():
    plane = projective_plane(3).system
    for solve in (transversal_number, domination_number, two_packing_number):
        a = solve(plane, kernels=PY_KERNELS)
        b = solve(plane, kernels=JIT_KERNELS)
        assert (a.value, a.witness, a.nodes_explored) == (
            b.value,
            b.witness,
            b.nodes_explored,
        )


@pytest.mark.skipif(JIT_KERNELS is None, reason="numba unavailable")
def test_nu2_kernel_backends_identical_with_caller_top():
    # the solver tests above run the root bound the solvers pass; here
    # top = m, which stops only when every line fits, and m + 1, which
    # never stops early
    for sys_ in build_corpus()[::9] + [projective_plane(3).system]:
        m = sys_.num_lines
        inc = _incidence(sys_.line_tuples, sys_.num_points)
        for top in (m, m + 1):
            a_best, a_wit, a_nodes = PY_KERNELS.nu2_search(inc, top)
            b_best, b_wit, b_nodes = JIT_KERNELS.nu2_search(inc, top)
            assert (a_best, a_nodes) == (b_best, b_nodes)
            assert np.array_equal(a_wit[:a_best], b_wit[:b_best])


def test_domination_on_lineless_system_needs_no_kernels():
    res = domination_number(LinearSystem(3, []), kernels=PY_KERNELS)
    assert res.value == 3


# What the jitted kernels may use of numpy; numba is absent from some test
# environments, so this keeps the shared source inside the subset it
# compiles even where no test can run the jitted path.
NUMBA_NP_ATTRS = {"full", "zeros", "where", "int32", "int64", "uint8"}


@pytest.mark.parametrize("name", ["_cover_search", "_nu2_search"])
def test_kernel_source_stays_in_numba_subset(name):
    tree = ast.parse(inspect.getsource(getattr(kernels, name)))
    func = tree.body[0]
    bound = {a.arg for a in func.args.args}
    loaded = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            else:
                loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "np":
                assert node.attr in NUMBA_NP_ATTRS, f"np.{node.attr}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            assert not isinstance(node.op, ast.MatMult), "@ operator"
    # self-contained: no module helpers, builtins other than range
    assert loaded - bound <= {"np", "range"}


def _cover_inputs(sys_):
    """The cover kernel's arguments as tau and as gamma build them, the
    greedy seed as the incumbent."""
    out = []
    if sys_.line_tuples:
        point_cover = _incidence(sys_.lines_through, sys_.num_lines)
        universe = np.ones(sys_.num_lines, dtype=np.uint8)
        seed, _ = _tau_seed(sys_)
        out.append((point_cover, universe, len(seed)))
    if sys_.support:
        cover = _closed_neighbourhoods(sys_)
        universe = (sys_.degrees > 0).astype(np.uint8)
        seed, _ = _gamma_seed(sys_)
        out.append((cover, universe, len(seed)))
    return out


def _reference_args(covers, universe, best0):
    """The reference kernel's arguments: the cover matrix, each column's
    rows, ascending and -1 padded, and their counts."""
    cols = [np.flatnonzero(covers[:, u]) for u in range(covers.shape[1])]
    sizes = np.array([len(c) for c in cols], dtype=np.int32)
    lists = np.full((len(cols), int(sizes.max())), -1, dtype=np.int32)
    for u, c in enumerate(cols):
        lists[u, : len(c)] = c
    return covers, lists, sizes, universe, best0


def _random_linear_system(rng):
    # lines over part of the points, so some points are isolated and
    # gamma's universe is not all ones
    n = rng.randint(2, 18)
    lines = []
    for _ in range(rng.randint(1, 14)):
        cand = frozenset(rng.sample(range(n), rng.randint(1, min(n, 5))))
        if all(len(cand & l) <= 1 and cand != l for l in lines):
            lines.append(cand)
    return LinearSystem(n, lines)


def _differential_systems():
    systems = list(build_corpus())
    systems += [projective_plane(q).system for q in (2, 3, 4, 5, 7)]
    systems += [triangular_system(m) for m in range(4, 12)]
    systems += [
        extend_with_pendant_points(projective_plane(q).system) for q in (2, 3, 4)
    ]
    rng = random.Random(20261019)
    systems += [_random_linear_system(rng) for _ in range(1200)]
    return systems


def _outcome(result):
    best, improved, witness, nodes = result
    return int(best), int(improved), witness[: int(best)].tolist(), int(nodes)


@pytest.mark.parametrize("ks", BACKENDS, ids=lambda ks: ks.name)
def test_cover_search_matches_reference_kernel(ks):
    # at floor 0 the kernel visits the reference's tree: same value,
    # incumbent flag, witness and node count, as tau input and as gamma
    # input (tau_search and gamma_search are the one cover kernel). At the
    # minimum as floor it stops at its first minimum cover: the same
    # outcome in no more nodes, and fewer on some inputs
    systems = _differential_systems()
    isolated = sum(len(s.support) < s.num_points for s in systems)
    assert isolated >= 200
    checked = cut = 0
    for sys_ in systems:
        for args in _cover_inputs(sys_):
            want = _outcome(reference_cover_search(*_reference_args(*args)))
            assert _outcome(ks.tau_search(*args, 0)) == want, (sys_.name, args[-1])
            got = _outcome(ks.tau_search(*args, want[0]))
            assert got[:3] == want[:3] and got[3] <= want[3], (sys_.name, args[-1])
            checked += 1
            cut += got[3] < want[3]
    assert checked >= 2 * 1000
    assert cut >= 100


def test_cover_search_memory_stays_per_depth():
    # PG(2,16)'s closed neighbourhoods are all ones: k = e = 273. The
    # search may hold one (k, e) uint8 temporary and numpy's fixed
    # buffer for a casting row sum (getbufsize() elements of 8 bytes);
    # everything else is O(cap * (k + e)), so a second (k, e) array, a
    # wider one or one per depth fails here
    cover = _closed_neighbourhoods(projective_plane(16).system)
    universe = np.ones(cover.shape[1], dtype=np.uint8)
    k, e = cover.shape
    # with incumbent 2 the root expands, and each of its k children is a
    # one-point cover, settled at the root
    best0 = 2
    cap = best0 + 2
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        best, improved, _, nodes = PY_KERNELS.gamma_search(cover, universe, best0, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (best, improved, nodes) == (1, 1, 1 + k)
    assert peak - base <= k * e + 8 * np.getbufsize() + 16 * cap * (k + e) + 4096
