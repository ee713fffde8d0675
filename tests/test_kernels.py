import ast
import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

from linsys import (
    LinearSystem,
    domination_number,
    projective_plane,
    transversal_number,
    two_packing_number,
)
from linsys import kernels
from linsys.kernels import ACTIVE, JIT_KERNELS, PURE_NUMPY_ENV, PY_KERNELS
from linsys.solvers import _incidence

from corpus import build_corpus

BACKENDS = [PY_KERNELS] + ([JIT_KERNELS] if JIT_KERNELS is not None else [])


def test_active_backend_selection():
    assert ACTIVE in BACKENDS
    assert PY_KERNELS.name == "numpy"
    if JIT_KERNELS is not None:
        assert JIT_KERNELS.name == "numba"
        assert ACTIVE is JIT_KERNELS


def test_pairwise_matches_set_arithmetic(fano):
    counts = ACTIVE.pairwise_intersections(_incidence(fano))
    for i in range(7):
        for j in range(7):
            assert counts[i, j] == len(fano.lines[i] & fano.lines[j])


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
        inc = _incidence(sys_)
        inc_t = np.ascontiguousarray(inc.T)
        for top in (m, m + 1):
            a_best, a_wit, a_nodes = PY_KERNELS.nu2_search(inc, inc_t, top)
            b_best, b_wit, b_nodes = JIT_KERNELS.nu2_search(inc, inc_t, top)
            assert (a_best, a_nodes) == (b_best, b_nodes)
            assert np.array_equal(a_wit[:a_best], b_wit[:b_best])


def test_pure_numpy_env_flag():
    code = (
        "from linsys.kernels import ACTIVE, JIT_KERNELS;"
        "assert JIT_KERNELS is None;"
        "assert ACTIVE.name == 'numpy';"
        "from linsys import transversal_number, LinearSystem;"
        "sys_ = LinearSystem(7, [[0,1,2],[0,3,4],[0,5,6],[1,3,5],[1,4,6],[2,3,6],[2,4,5]]);"
        "assert transversal_number(sys_).value == 3"
    )
    env = dict(os.environ, **{PURE_NUMPY_ENV: "1"})
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


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
