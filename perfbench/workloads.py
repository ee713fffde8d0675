"""The benchmark's three workloads as lists of operations.

An operation has a name, ``run()`` (the linsys calls a user waits for,
timed as one op) and ``check(raw)``, which returns ``(problem, summary)``:
problem is None when the answer is right, and summary is the JSON-able
answer that ``answers_seed0.json`` pins for the default seed. linsys only
ever sees the generated inputs: JSON texts or files written in set-up.

linsys functions are looked up on their modules at call time, so the
traced run sees the wrappers that ``spans.install`` puts there.
"""

import io
import json
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout

import linsys
import linsys.cli
import linsys.kernels

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
ANSWERS_SEED0 = os.path.join(HERE, "answers_seed0.json")
DEFAULT_SEED = 0


class Op:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


class Workload:
    """ops: the pass, in order. finish_setup: benchmark-side work done
    after set-up is timed (computing expected answers). close: removes
    the files the workload wrote."""

    def __init__(self, ops, finish_setup=None, close=None, agreement=None):
        self.ops = ops
        self.finish_setup = finish_setup or (lambda: None)
        self.close = close or (lambda: None)
        self.agreement = agreement


def load_expected():
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def _plane(q):
    return inputs.projective_plane(q)


def _solve(kind, s, kernels=None):
    """One exact solve plus the program's own witness verifier."""
    solver, verifier = {
        "tau": (linsys.transversal_number, linsys.verify_transversal),
        "gamma": (linsys.domination_number, linsys.verify_domination),
        "nu2": (linsys.two_packing_number, linsys.verify_two_packing),
    }[kind]
    res = solver(s) if kernels is None else solver(s, kernels=kernels)
    return res, verifier(s, res.witness)


def _solve_answer(kind, s):
    res, ok = _solve(kind, s)
    return {"value": res.value, "witness": list(res.witness), "verified": ok}


def _solve_summary(answer):
    return {"value": answer["value"], "witness": answer["witness"]}


# ---------------------------------------------------------------- search

SEARCH_CASES = (
    ("tau", "PG(2,3)"), ("nu2", "PG(2,3)"),
    ("tau", "PG(2,4)"), ("nu2", "PG(2,4)"),
    ("tau", "PG(2,5)"), ("nu2", "PG(2,5)"),
    ("tau", "ext-PG(2,3)"), ("gamma", "ext-PG(2,3)"),
    ("tau", "ext-PG(2,4)"), ("gamma", "ext-PG(2,4)"),
    ("tau", "triangular-9"), ("gamma", "triangular-9"), ("nu2", "triangular-9"),
    ("tau", "triangular-10"), ("gamma", "triangular-10"),
)


def search_inputs(seed):
    """Relabelled instance texts of the search workload, by name."""
    base = {
        "PG(2,3)": _plane(3),
        "PG(2,4)": _plane(4),
        "PG(2,5)": _plane(5),
        "ext-PG(2,3)": inputs.pendant_extension(_plane(3)),
        "ext-PG(2,4)": inputs.pendant_extension(_plane(4)),
        "triangular-9": inputs.triangular(9),
        "triangular-10": inputs.triangular(10),
    }
    out = {}
    for name, system in base.items():
        relabelled, _ = inputs.relabel(system, inputs.rng_for(seed, f"search:{name}"))
        out[name] = (relabelled, inputs.to_json(relabelled, name))
    return out


def search_workload(seed, expected):
    values = expected["values"]
    systems = {}
    for name, (system, text) in search_inputs(seed).items():
        systems[name] = (system, linsys.loads_json(text))

    def make(kind, name):
        system, s = systems[name]

        def check(answer):
            problem = checks.check_solve(kind, system, answer, values[name][kind])
            return problem, _solve_summary(answer)

        return Op(f"{kind} {name}", lambda: _solve_answer(kind, s), check)

    def agreement():
        """Re-solve every case with the pure-numpy kernels and compare value,
        witness and nodes with the active (jitted) backend. Returns a list
        of problems, or None when there is only one backend."""
        jit, py = linsys.kernels.JIT_KERNELS, linsys.kernels.PY_KERNELS
        if jit is None or linsys.kernels.ACTIVE is not jit:
            return None
        problems = []
        for kind, name in SEARCH_CASES:
            s = systems[name][1]
            a, _ = _solve(kind, s, jit)
            b, _ = _solve(kind, s, py)
            if (a.value, a.witness, a.nodes_explored) != (
                b.value, b.witness, b.nodes_explored
            ):
                problems.append(f"{kind} {name}: numba and numpy backends disagree")
        return problems

    return Workload([make(k, n) for k, n in SEARCH_CASES], agreement=agreement)


# ----------------------------------------------------------------- build

RANDOM_SYSTEMS = 100
BUILD_PLANES = (2, 3, 4, 5, 7, 8, 9)
BUILD_EXTENDED = (2, 3, 4, 5)
BUILD_BIG = (11, 13, 16)
ISO_MAX_ORDER = 4


def build_inputs(seed):
    """All build inputs as JSON texts plus the systems they encode."""
    rng = inputs.rng_for(seed, "build:random")
    rand = []
    for i in range(RANDOM_SYSTEMS):
        # sizes follow a fixed schedule (5..16 points, 3..12 lines) so that
        # the seed changes which systems are drawn, not how large they are
        system = inputs.random_linear_system(rng, 5 + i % 12, 3 + 7 * i % 10)
        copy, _ = inputs.relabel(system, rng)
        rand.append((system, inputs.to_json(system), copy, inputs.to_json(copy)))
    planes = {}
    for q in BUILD_PLANES + BUILD_BIG:
        rng = inputs.rng_for(seed, f"build:PG(2,{q})")
        base = _plane(q)
        a, _ = inputs.relabel(base, rng)
        b, _ = inputs.relabel(base, rng)
        planes[q] = (a, inputs.to_json(a), b, inputs.to_json(b))
    extended = {}
    for q in BUILD_EXTENDED:
        base = _plane(q)
        ext, perm = inputs.relabel(
            inputs.pendant_extension(base), inputs.rng_for(seed, f"build:ext-PG(2,{q})")
        )
        pendants = sorted(perm[base[0] + i] for i in range(len(base[1])))
        extended[q] = (ext, inputs.to_json(ext), pendants)
    return rand, planes, extended


def _iso_answer(cert):
    pairs = None
    if cert.point_bijection is not None:
        pairs = sorted([int(k), int(v)] for k, v in cert.point_bijection.items())
    return {"isomorphic": cert.isomorphic, "bijection": pairs}


def _iso_problem(iso, a, b):
    """a and b are relabellings of one system, so iso must certify it."""
    if not iso["isomorphic"] or iso["bijection"] is None:
        return "relabelled copy reported not isomorphic"
    return checks.check_bijection(a, b, dict(map(tuple, iso["bijection"])))


def build_workload(seed, expected):
    values = expected["values"]
    rand, planes, extended = build_inputs(seed)
    oracle_values = [None] * len(rand)
    ops = []

    def random_op(i):
        system, text, copy, copy_text = rand[i]

        def run():
            a = linsys.loads_json(text)
            b = linsys.loads_json(copy_text)
            out = {k: _solve_answer(k, a) for k in ("tau", "gamma", "nu2")}
            out["iso"] = _iso_answer(linsys.are_isomorphic(a, b))
            return out

        def check(raw):
            summary = {k: _solve_summary(raw[k]) for k in ("tau", "gamma", "nu2")}
            summary["iso"] = raw["iso"]
            for k in ("tau", "gamma", "nu2"):
                problem = checks.check_solve(k, system, raw[k], oracle_values[i][k])
                if problem:
                    return problem, summary
            return _iso_problem(raw["iso"], system, copy), summary

        return Op(f"random-{i}", run, check)

    def plane_op(q):
        system, text, other, other_text = planes[q]
        name = f"PG(2,{q})"

        def run():
            a = linsys.loads_json(text)
            out = {"intersecting": linsys.is_intersecting(a)}
            out["gamma"] = _solve_answer("gamma", a)
            reduced, removed = linsys.pendant_reduction(a)
            out["reduced"] = [list(l) for l in reduced.line_tuples]
            out["removed"] = list(removed)
            if q <= ISO_MAX_ORDER:
                b = linsys.loads_json(other_text)
                out["iso"] = _iso_answer(linsys.are_isomorphic(a, b))
            return out

        def check(raw):
            summary = {"gamma": _solve_summary(raw["gamma"]), "iso": raw.get("iso")}
            if not raw["intersecting"]:
                return f"{name} reported not intersecting", summary
            problem = checks.check_solve("gamma", system, raw["gamma"], values[name]["gamma"])
            if problem:
                return problem, summary
            if raw["removed"] or not checks.same_lines(system, (system[0], raw["reduced"])):
                return f"{name} changed under pendant reduction", summary
            if "iso" in raw:
                return _iso_problem(raw["iso"], system, other), summary
            return None, summary

        return Op(f"plane {name}", run, check)

    def extended_op(q):
        system, text, pendants = extended[q]
        host, host_text = planes[q][0], planes[q][1]
        name = f"ext-PG(2,{q})"

        def run():
            e = linsys.loads_json(text)
            out = {"intersecting": linsys.is_intersecting(e)}
            out["gamma"] = _solve_answer("gamma", e)
            reduced, removed = linsys.pendant_reduction(e)
            out["reduced"] = [list(l) for l in reduced.line_tuples]
            out["removed"] = list(removed)
            if q <= ISO_MAX_ORDER:
                emb = linsys.embeds_in(reduced, linsys.loads_json(host_text))
                out["embedding"] = None if emb is None else {
                    "points": sorted([int(k), int(v)] for k, v in emb.point_map.items()),
                    "lines": sorted([int(k), int(v)] for k, v in emb.line_map.items()),
                }
            return out

        def check(raw):
            summary = {
                "gamma": _solve_summary(raw["gamma"]),
                "removed": raw["removed"],
                "embedding": raw.get("embedding"),
            }
            if not raw["intersecting"]:
                return f"{name} reported not intersecting", summary
            problem = checks.check_solve("gamma", system, raw["gamma"], values[name]["gamma"])
            if problem:
                return problem, summary
            if sorted(raw["removed"]) != pendants:
                return f"{name} pendant reduction removed {raw['removed']}", summary
            drop = set(pendants)
            want = (system[0], [[v for v in l if v not in drop] for l in system[1]])
            if not checks.same_lines(want, (system[0], raw["reduced"])):
                return f"{name} pendant reduction left the wrong lines", summary
            if "embedding" in raw:
                emb = raw["embedding"]
                if emb is None:
                    return f"reduced {name} does not embed in PG(2,{q})", summary
                problem = checks.check_embedding(
                    (system[0], raw["reduced"]), host, dict(map(tuple, emb["points"])),
                    dict(map(tuple, emb["lines"])),
                )
                return problem, summary
            return None, summary

        return Op(f"plane {name}", run, check)

    def big_op(q):
        system, text = planes[q][0], planes[q][1]

        def run():
            a = linsys.loads_json(text)
            rep = linsys.verify_plane_axioms(a)
            prof = linsys.degree_profile(a)
            return {
                "is_plane": rep.is_plane,
                "order": rep.order,
                "degrees": sorted(set(prof.degrees)),
                "top2": [prof.max_degree, prof.second_max_degree],
            }

        def check(raw):
            if not raw["is_plane"] or raw["order"] != q:
                return f"PG(2,{q}) axioms gave {raw}", raw
            if raw["degrees"] != [q + 1] or raw["top2"] != [q + 1, q + 1]:
                return f"PG(2,{q}) degree profile {raw}", raw
            return checks.check_plane(system, q), raw

        return Op(f"axioms PG(2,{q})", run, check)

    ops += [random_op(i) for i in range(len(rand))]
    ops += [plane_op(q) for q in BUILD_PLANES]
    ops += [extended_op(q) for q in BUILD_EXTENDED]
    ops += [big_op(q) for q in BUILD_BIG]

    def finish_setup():
        for i, (system, _, _, _) in enumerate(rand):
            oracle_values[i] = checks.oracle(*system)

    return Workload(ops, finish_setup=finish_setup)


# ------------------------------------------------------------- paper-cli

def run_cli(argv):
    """linsys.cli.main in process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = linsys.cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue()


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cli_workload(seed, expected, workdir):
    """The README pipeline through linsys.cli.main on files in workdir."""
    values = expected["values"]
    os.makedirs(workdir, exist_ok=True)
    rng = inputs.rng_for(seed, "paper-cli")
    fano = _plane(2)
    fano_r, _ = inputs.relabel(fano, rng)
    pg3_r, _ = inputs.relabel(_plane(3), rng)
    pg4_r, _ = inputs.relabel(_plane(4), rng)
    ext_fano_r, _ = inputs.relabel(inputs.pendant_extension(fano), rng)
    frag_index = rng.randrange(7)

    def path(name):
        return os.path.join(workdir, name)

    for name, system in (("fano-r.json", fano_r), ("pg3-r.json", pg3_r),
                         ("pg4-r.json", pg4_r), ("ext-fano-r.json", ext_fano_r)):
        with open(path(name), "w", encoding="utf-8") as fh:
            fh.write(inputs.to_json(system) + "\n")

    ops = []

    def op(name, argv, check_fn, exit_code=0):
        """check_fn(stdout JSON, --out file JSON) runs when the exit code
        is the expected one."""
        def check(raw):
            code, text = raw
            data = json.loads(text) if "--json" in argv and text.strip() else None
            if isinstance(data, dict):
                data = {k: v for k, v in data.items() if k not in ("ms", "nodes")}
            out_file = argv[argv.index("--out") + 1] if "--out" in argv else None
            file_data = _read(out_file) if out_file and code == 0 else None
            summary = {"exit": code, "json": data, "file": file_data}
            if code != exit_code:
                return f"exit {code}, expected {exit_code}", summary
            return check_fn(data, file_data), summary

        ops.append(Op(name, lambda: run_cli(argv), check))

    def read_system(name):
        return checks.system_of(_read(path(name)))

    def lines_check(want_fn, what):
        return lambda _, data: None if checks.same_lines(
            checks.system_of(data), want_fn()) else f"{what} has the wrong lines"

    def plane_file(q):
        def check(_, data):
            if len(data.get("coords", ())) != q * q + q + 1:
                return "plane file has the wrong number of coords"
            return checks.check_plane(checks.system_of(data), q)
        return check

    for q in (2, 3, 4):
        name = "fano.json" if q == 2 else f"pg{q}.json"
        op(f"gen plane {q}", ["gen", "plane", "--q", str(q), "--out", path(name)],
           plane_file(q))
    op("gen hyperoval 4", ["gen", "hyperoval", "--q", "4", "--out", path("ho4.json")],
       lambda _, data: plane_file(4)(_, data)
       or checks.check_arc(checks.system_of(data), data["arc"], 6))
    op("gen triangular 6", ["gen", "triangular", "--m", "6", "--out", path("tri6.json")],
       lines_check(lambda: inputs.triangular(6), "triangular-6"))

    def fano_minus_line():
        n, lines = read_system("fano.json")
        return n, [l for i, l in enumerate(lines) if i != frag_index]

    op("gen fano-minus-line", ["gen", "fano-minus-line", "--index", str(frag_index),
                               "--out", path("frag.json")],
       lines_check(fano_minus_line, f"fano minus line {frag_index}"))
    for name, argv in (
        ("extend fano", ["extend", path("fano.json"), "--out", path("ext-fano.json")]),
        ("extend frag", ["extend", path("frag.json"), "--out", path("ext-frag.json")]),
        ("gen extend pg4", ["gen", "extend", "--in", path("pg4.json"),
                            "--out", path("ext-pg4.json")]),
    ):
        src = os.path.basename(argv[-3])
        op(name, argv, lines_check(
            lambda src=src: inputs.pendant_extension(read_system(src)), f"extension of {src}"))

    for src, r in (("ext-fano.json", 4), ("ext-frag.json", 4), ("ext-pg4.json", 6)):
        op(f"derive {src}", ["derive", path(src), "--r", str(r), "--json"],
           lambda data, _, src=src, r=r: checks.check_derivation(read_system(src), data, r))

    op("iso fano fano-r", ["iso", path("fano.json"), path("fano-r.json"), "--json"],
       lambda data, _: checks.check_bijection(
           read_system("fano.json"), fano_r,
           {int(k): v for k, v in (data["bijection"] or {}).items()}))
    op("iso fano frag", ["iso", path("fano.json"), path("frag.json"), "--json"],
       lambda data, _: None if data == {"isomorphic": False, "bijection": None}
       else f"iso fano frag printed {data}", exit_code=1)
    op("embed frag fano-r", ["embed", path("frag.json"), path("fano-r.json"), "--json"],
       lambda data, _: checks.check_embedding(
           read_system("frag.json"), fano_r,
           {int(k): v for k, v in data["point_map"].items()},
           {int(k): v for k, v in data["line_map"].items()}))

    for kind, src, system, name in (
        ("tau", "fano-r.json", fano_r, "PG(2,2)"),
        ("gamma", "fano-r.json", fano_r, "PG(2,2)"),
        ("nu2", "fano-r.json", fano_r, "PG(2,2)"),
        ("tau", "pg3-r.json", pg3_r, "PG(2,3)"),
        ("nu2", "pg3-r.json", pg3_r, "PG(2,3)"),
        ("nu2", "pg4-r.json", pg4_r, "PG(2,4)"),
        ("gamma", "ext-fano-r.json", ext_fano_r, "ext-PG(2,2)"),
    ):
        op(f"solve {kind} {src}", ["solve", f"--{kind}", path(src), "--json"],
           lambda data, _, kind=kind, system=system, value=values[name][kind]:
           checks.check_solve(kind, system, dict(data, verified=True), value))

    for q in (2, 3, 4):
        rows = expected["check_paper_rows"][str(q)]
        op(f"check-paper {q}", ["check-paper", "--q", str(q), "--json"],
           lambda data, _, q=q, rows=rows:
           None if data["q"] == q and [[r["name"], r["status"]] for r in data["rows"]] == rows
           else f"check-paper --q {q} rows differ from expected.json")

    return Workload(ops, close=lambda: shutil.rmtree(workdir, ignore_errors=True))


WORKLOADS = ("search", "build", "paper-cli")


def make_workload(name, seed, workdir):
    expected = load_expected()
    if name == "search":
        return search_workload(seed, expected)
    if name == "build":
        return build_workload(seed, expected)
    if name == "paper-cli":
        return cli_workload(seed, expected, workdir)
    raise ValueError(f"unknown workload {name!r}")


def warm_up():
    """Run every active kernel once on the Fano plane, so JIT compilation
    (when numba is present) happens in set-up, not in the first pass."""
    s = linsys.LinearSystem(*_plane(2))
    for kind in ("tau", "gamma", "nu2"):
        _solve(kind, s)
