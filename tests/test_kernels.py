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
from linsys.kernels import ACTIVE, JIT_KERNELS, PURE_NUMPY_ENV, PY_KERNELS

from corpus import build_corpus

BACKENDS = [PY_KERNELS] + ([JIT_KERNELS] if JIT_KERNELS is not None else [])


def test_active_backend_selection():
    assert ACTIVE in BACKENDS
    assert PY_KERNELS.name == "numpy"
    if JIT_KERNELS is not None:
        assert JIT_KERNELS.name == "numba"
        assert ACTIVE is JIT_KERNELS


@pytest.mark.skipif(JIT_KERNELS is None, reason="numba unavailable")
def test_pairwise_backends_agree(fano):
    words = fano.line_words
    a = PY_KERNELS.pairwise_intersections(words)
    b = JIT_KERNELS.pairwise_intersections(words)
    assert np.array_equal(a, b)
    rng = np.random.default_rng(7)
    blob = rng.integers(0, 2**64, size=(300, 4), dtype=np.uint64)
    assert np.array_equal(
        PY_KERNELS.pairwise_intersections(blob),
        JIT_KERNELS.pairwise_intersections(blob),
    )


def test_pairwise_matches_set_arithmetic(fano):
    counts = ACTIVE.pairwise_intersections(fano.line_words)
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
