"""The checker rejects corrupted answers; fed directly, without linsys."""

import checks
import inputs

FANO = inputs.projective_plane(2)


def _answer(value, witness):
    return {"value": value, "witness": witness, "verified": True}


def test_accepts_correct_answers():
    values = checks.oracle(*FANO)
    assert values == {"tau": 3, "gamma": 1, "nu2": 4}
    assert checks.check_solve("tau", FANO, _answer(3, list(FANO[1][0])), 3) is None
    assert checks.check_solve("gamma", FANO, _answer(1, [5]), 1) is None


def test_rejects_wrong_value():
    assert checks.check_solve("tau", FANO, _answer(2, [0, 1]), 3)


def test_rejects_bad_witnesses():
    line = list(FANO[1][0])
    off_line = next(v for v in range(7) if v not in line)
    not_transversal = [line[0], line[1], off_line]
    assert not checks.is_transversal(*FANO, not_transversal)
    assert checks.check_solve("tau", FANO, _answer(3, not_transversal), 3)
    assert checks.check_solve("tau", FANO, _answer(3, [line[0], line[0], line[1]]), 3)
    assert checks.check_solve("nu2", FANO, _answer(4, [0, 1, 2, 3]), 4)
    ext = inputs.pendant_extension(FANO)
    pendants = [7, 8, 9]  # each dominates only its own line
    assert checks.check_solve("gamma", ext, _answer(3, pendants), 3)


def test_rejects_what_the_program_verifier_rejected():
    answer = _answer(3, list(FANO[1][0]))
    answer["verified"] = False
    assert checks.check_solve("tau", FANO, answer, 3)


def test_rejects_corrupted_bijection_and_embedding():
    identity = {v: v for v in range(7)}
    assert checks.check_bijection(FANO, FANO, identity) is None
    swapped = dict(identity)
    swapped[0], swapped[1] = identity[1], identity[1]
    assert checks.check_bijection(FANO, FANO, swapped)

    sub = (7, FANO[1][1:])
    lines = {i: i + 1 for i in range(6)}
    assert checks.check_embedding(sub, FANO, identity, lines) is None
    assert checks.check_embedding(sub, FANO, identity, {**lines, 0: 0})
    assert checks.check_embedding(sub, FANO, {**identity, 0: 1}, lines)


def test_rejects_non_plane_and_bad_arc():
    n, lines = inputs.projective_plane(3)
    assert checks.check_plane((n, lines), 3) is None
    assert checks.check_plane((n, lines[1:] + [lines[0][:-1]]), 3)
    assert checks.check_arc(FANO, FANO[1][0], 3)


def test_rejects_corrupted_derivation():
    ext = inputs.pendant_extension(FANO)
    n, lines = ext
    report = {
        "member": True,
        "chain": {"gamma_source": 3, "gamma_spanning": 3, "tau_spanning": 3,
                  "tau_reduced": 3, "target": 3},
        "spanning_line_indices": list(range(7)),
        "pendant_map": {str(i): 7 + i for i in range(7)},
        "reduced": {"num_points": n, "lines": [list(l) for l in FANO[1]]},
    }
    assert checks.check_derivation(ext, report, 4) is None
    bad_chain = dict(report, chain={**report["chain"], "tau_reduced": 4})
    assert checks.check_derivation(ext, bad_chain, 4)
    bad_pendant = dict(report, pendant_map={**report["pendant_map"], "0": 0})
    assert checks.check_derivation(ext, bad_pendant, 4)
