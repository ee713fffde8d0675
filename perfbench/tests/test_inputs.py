"""The input generator is deterministic per seed and makes valid systems."""

import itertools

import checks
import inputs
import workloads


def _texts(seed):
    search = [text for _, text in workloads.search_inputs(seed).values()]
    rand, planes, extended = workloads.build_inputs(seed)
    build = [r[1] + r[3] for r in rand]
    build += [p[1] + p[3] for p in planes.values()]
    build += [e[1] for e in extended.values()]
    return search + build


def test_same_seed_gives_byte_identical_inputs():
    assert _texts(7) == _texts(7)


def test_different_seeds_give_different_inputs():
    assert _texts(7) != _texts(8)


def test_planes_are_planes():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        assert checks.check_plane(inputs.projective_plane(q), q) is None


def test_random_systems_are_linear():
    rng = inputs.rng_for(0, "test")
    for i in range(50):
        n, lines = inputs.random_linear_system(rng, 5 + i % 12, 3 + i % 10)
        assert 1 <= len(lines) <= 3 + i % 10 and n == 5 + i % 12
        assert len({frozenset(l) for l in lines}) == len(lines)
        for a, b in itertools.combinations(lines, 2):
            assert len(set(a) & set(b)) <= 1


def test_relabel_keeps_values():
    system = inputs.pendant_extension(inputs.projective_plane(2))
    relabelled, perm = inputs.relabel(system, inputs.rng_for(0, "test"))
    assert sorted(perm) == list(range(system[0]))
    assert checks.oracle(*relabelled) == checks.oracle(*system)
