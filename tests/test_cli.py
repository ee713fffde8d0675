import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import linsys
from linsys import LinearSystem, dumps_text, loads_json, loads_text
from linsys.cli import main
from linsys.limits import Caps


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def plane_file(tmp_path, capsys):
    path = tmp_path / "plane2.json"
    code, _, _ = run_cli(capsys, "gen", "plane", "--q", "2", "--out", str(path))
    assert code == 0
    return path


@pytest.fixture
def ext_file(tmp_path, capsys, plane_file):
    path = tmp_path / "ext.json"
    code, _, _ = run_cli(
        capsys, "gen", "extend", "--in", str(plane_file), "--out", str(path)
    )
    assert code == 0
    return path


def test_gen_plane_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "plane", "--q", "3")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "PG(2,3)"
    assert data["num_points"] == 13
    assert len(data["lines"]) == 13
    assert len(data["coords"]) == 13


def test_gen_plane_to_file(plane_file):
    sys_ = loads_json(plane_file.read_text())
    assert sys_.num_points == 7
    assert sys_.name == "PG(2,2)"


def test_gen_hyperoval(capsys):
    code, out, _ = run_cli(capsys, "gen", "hyperoval", "--q", "4")
    assert code == 0
    data = json.loads(out)
    assert len(data["arc"]) == 6
    assert data["arc"] == sorted(data["arc"])


def test_gen_hyperoval_odd_order_fails(capsys):
    code, out, err = run_cli(capsys, "gen", "hyperoval", "--q", "3")
    assert code == 2
    assert "OddOrder" in err


def test_gen_triangular(capsys):
    code, out, _ = run_cli(capsys, "gen", "triangular", "--m", "5")
    assert code == 0
    data = json.loads(out)
    assert data["num_points"] == 10
    assert len(data["lines"]) == 5
    assert data["name"] == "triangular-5"


def test_gen_triangular_over_cap_exits_two(capsys, monkeypatch):
    # refused from m alone, before any line is built
    monkeypatch.delenv("LINSYS_CAPS", raising=False)
    code, out, err = run_cli(capsys, "gen", "triangular", "--m", "100000")
    assert (code, out) == (2, "")
    assert err == "error: SizeLimit: 4999950000 points exceeds cap 100000\n"
    monkeypatch.setenv("LINSYS_CAPS", "system_points=9")
    code, _, err = run_cli(capsys, "gen", "triangular", "--m", "5")
    assert code == 2 and err == "error: SizeLimit: 10 points exceeds cap 9\n"


def test_gen_fano_minus_line(capsys):
    code, out, _ = run_cli(capsys, "gen", "fano-minus-line", "--index", "2")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "PG(2,2)-minus-line-2"
    assert len(data["lines"]) == 6


def test_gen_bad_order(capsys):
    code, _, err = run_cli(capsys, "gen", "plane", "--q", "6")
    assert code == 2
    assert "NotPrimePower" in err


def test_solve_tau_json(capsys, plane_file):
    code, out, _ = run_cli(capsys, "solve", "--tau", str(plane_file), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "transversal"
    assert data["value"] == 3
    assert sorted(data["witness"]) == data["witness"]
    assert set(data) == {"kind", "value", "witness", "nodes", "ms"}


def test_solve_text_output(capsys, plane_file):
    code, out, _ = run_cli(capsys, "solve", "--gamma", str(plane_file))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma = 1"
    assert lines[1].startswith("witness:")
    assert lines[2].startswith("nodes:")


def test_solve_nu2(capsys, plane_file):
    code, out, _ = run_cli(capsys, "solve", "--nu2", str(plane_file), "--json")
    assert code == 0
    assert json.loads(out)["value"] == 4


def test_solve_reads_text_format(capsys, tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text(dumps_text(LinearSystem(3, [[0, 1], [1, 2], [0, 2]])))
    code, out, _ = run_cli(capsys, "solve", "--tau", str(path), "--json")
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_solve_missing_file(capsys):
    code, _, err = run_cli(capsys, "solve", "--tau", "/nonexistent.json")
    assert code == 2
    assert "error" in err


def test_derive_json(capsys, tmp_path, ext_file):
    out_path = tmp_path / "reduced.json"
    code, out, _ = run_cli(
        capsys,
        "derive",
        str(ext_file),
        "--r",
        "4",
        "--json",
        "--out",
        str(out_path),
    )
    assert code == 0
    data = json.loads(out)
    assert data["member"] is True
    assert data["chain"]["target"] == 3
    assert set(data["chain"].values()) == {3}
    assert len(data["spanning_line_indices"]) == 7
    reduced = loads_json(out_path.read_text())
    assert reduced.num_lines == 7
    assert all(len(l) == 3 for l in reduced.line_tuples)


def test_derive_non_member_exits_one(capsys, plane_file):
    code, out, _ = run_cli(capsys, "derive", str(plane_file), "--r", "3")
    assert code == 1
    assert "not a family member" in out


def test_derive_with_isolated_points_exits_one(capsys, tmp_path):
    path = tmp_path / "isolated.json"
    path.write_text(
        json.dumps({"num_points": 9, "lines": [[1, 3, 5, 7], [0, 5, 6, 8]]})
    )
    code, out, err = run_cli(capsys, "derive", str(path), "--r", "4")
    assert (code, err) == (1, "")
    assert out == (
        "not a family member: rank 4 (want 4), intersecting=True,"
        " domination 3 (want 3), isolated points [2, 4]\n"
    )


def test_derive_text_output(capsys, ext_file):
    code, out, _ = run_cli(capsys, "derive", str(ext_file), "--r", "4")
    assert code == 0
    assert "spanning lines:" in out
    assert "equalities:" in out


def test_extend_round_trip(capsys, tmp_path, plane_file, ext_file):
    path = tmp_path / "ext2.json"
    code, _, _ = run_cli(capsys, "extend", str(plane_file), "--out", str(path))
    assert code == 0
    assert loads_json(path.read_text()) == loads_json(ext_file.read_text())


def test_extend_rejects_nonuniform(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"num_points":4,"lines":[[0,1],[1,2,3]]}')
    code, _, err = run_cli(capsys, "extend", str(path))
    assert code == 2
    assert "NotUniform" in err


def test_check_paper_json(capsys):
    code, out, _ = run_cli(capsys, "check-paper", "--q", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 2
    assert all(r["status"] in {"pass", "skip"} for r in data["rows"])


def test_check_paper_text(capsys):
    code, out, _ = run_cli(capsys, "check-paper", "--q", "3")
    assert code == 0
    assert "checks pass" in out.splitlines()[-1]


def test_iso_positive(capsys, tmp_path, plane_file):
    relabeled = tmp_path / "relabel.json"
    base = loads_json(plane_file.read_text())
    perm = [3, 5, 0, 6, 1, 4, 2]
    relabeled.write_text(
        json.dumps(
            {
                "num_points": 7,
                "lines": [[perm[v] for v in l] for l in base.line_tuples],
            }
        )
    )
    code, out, _ = run_cli(capsys, "iso", str(plane_file), str(relabeled), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["isomorphic"] is True
    assert len(data["bijection"]) == 7


def test_iso_negative(capsys, tmp_path, plane_file):
    other = tmp_path / "frag.json"
    run = main(["gen", "fano-minus-line", "--index", "0", "--out", str(other)])
    assert run == 0
    code, out, _ = run_cli(capsys, "iso", str(plane_file), str(other))
    assert code == 1
    assert "not isomorphic" in out


def test_embed_positive(capsys, tmp_path, plane_file):
    frag = tmp_path / "frag.json"
    assert main(["gen", "fano-minus-line", "--index", "0", "--out", str(frag)]) == 0
    code, out, _ = run_cli(capsys, "embed", str(frag), str(plane_file), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["embeds"] is True
    assert len(data["point_map"]) == 7
    assert len(set(data["line_map"].values())) == 6


def test_embed_negative(capsys, tmp_path, plane_file):
    big = tmp_path / "big.json"
    big.write_text('{"num_points":5,"lines":[[0,1,2,3,4]]}')
    code, out, _ = run_cli(capsys, "embed", str(big), str(plane_file))
    assert code == 1
    assert "no embedding" in out


def test_embed_of_1200_points_exits_zero(capsys, monkeypatch, tmp_path):
    # more points than Python's recursion limit, each a level of the search
    path = tmp_path / "m.json"
    lines = [[2 * i, 2 * i + 1] for i in range(600)]
    path.write_text(json.dumps({"num_points": 1200, "lines": lines}))
    monkeypatch.setenv("LINSYS_CAPS", "iso_points=2000")
    code, out, _ = run_cli(capsys, "embed", str(path), str(path))
    assert code == 0
    assert out.startswith("embeds\n")


def test_caps_env_rejected_when_malformed(capsys, monkeypatch):
    monkeypatch.setenv("LINSYS_CAPS", "nonsense")
    code, _, err = run_cli(capsys, "check-paper", "--q", "2")
    assert code == 2
    assert "LINSYS_CAPS" in err


def test_caps_env_enforced(capsys, monkeypatch, plane_file):
    monkeypatch.setenv("LINSYS_CAPS", "solver_points=4")
    code, _, err = run_cli(capsys, "solve", "--tau", str(plane_file), "--json")
    assert code == 2
    assert "SizeLimit" in err


def test_declared_points_over_cap_exit_two(capsys, monkeypatch, tmp_path, plane_file):
    # refused before any per-point list is allocated
    path = tmp_path / "huge.json"
    path.write_text('{"num_points": 1000000000000, "lines": [[0, 1]]}')
    monkeypatch.delenv("LINSYS_CAPS", raising=False)
    code, out, err = run_cli(capsys, "solve", "--tau", str(path))
    assert (code, out) == (2, "")
    assert err == "error: SizeLimit: 1000000000000 points exceeds cap 100000\n"
    # the loaders take the caps LINSYS_CAPS sets
    monkeypatch.setenv("LINSYS_CAPS", "system_points=6")
    code, _, err = run_cli(capsys, "solve", "--tau", str(plane_file))
    assert code == 2 and err == "error: SizeLimit: 7 points exceeds cap 6\n"


def test_caps_env_unknown_key(capsys, monkeypatch):
    monkeypatch.setenv("LINSYS_CAPS", "bogus_key=3")
    code, _, err = run_cli(capsys, "check-paper", "--q", "2")
    assert code == 2


def test_caps_env_bad_value_names_entry(capsys, monkeypatch):
    for entry in ("solver_points=abc", "solver_points=0"):
        monkeypatch.setenv("LINSYS_CAPS", f"iso_points=8, {entry}")
        code, _, err = run_cli(capsys, "check-paper", "--q", "2")
        assert code == 2
        assert "LINSYS_CAPS" in err
        assert f"'{entry}'" in err
    # a Caps built in code still names the field
    with pytest.raises(ValueError, match="solver_points must be positive"):
        Caps(solver_points=0)


def _declared_console_script(name):
    """Return (module, attr) of ``[project.scripts][name]`` in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, _, attr = target.partition(":")
    return module, attr


def test_console_script_installed():
    # Runs the declared entry point the way pip's generated wrapper does, so
    # the check needs no install; test_console_script_on_path covers a real one.
    module, attr = _declared_console_script("linsys")
    code = (
        f"import sys; from {module} import {attr}; "
        f"sys.argv[0] = 'linsys'; sys.exit({attr}())"
    )
    env = dict(os.environ)
    src = str(Path(linsys.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "gen", "plane", "--q", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["name"] == "PG(2,2)", proc.stderr


@pytest.mark.skipif(
    shutil.which("linsys") is None, reason="linsys console script not installed"
)
def test_console_script_on_path():
    proc = subprocess.run(
        ["linsys", "gen", "plane", "--q", "2"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["name"] == "PG(2,2)", proc.stderr


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "linsys.cli", "check-paper", "--q", "2", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_gen_plane_order_above_cap_exits_fast(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "gen", "plane", "--q", "1000000000000000003")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == "error: SizeLimit: plane order 1000000000000000003 exceeds cap 16\n"


# check-paper rows at the default caps: q = 2 and q = 4 run every row,
# q = 8 skips the reconstruction (146 points), q = 11 and q = 16 the
# plane solvers, q = 16 also the reconstruction and saturated packing;
# odd q skips the even-q rows
CHECK_PAPER_ROWS = {
    "2": [
        ("plane-axioms", "pass", "order=2"),
        ("plane-counts", "pass", "7 points, 7 lines"),
        ("plane-transversal", "pass", "tau=3"),
        ("plane-two-packing", "pass", "nu2=4"),
        ("packing-gap-implication", "pass", "m=7, bound=7, hypothesis=True"),
        ("hyperoval-arc", "pass", "4 points"),
        ("hyperoval-dual-packing", "pass", "4 lines"),
        (
            "reconstruction-uniform-intersecting",
            "pass",
            "expected {'uniform': 3, 'intersecting': True}, got {'uniform': 3, 'intersecting': True}",
        ),
        ("reconstruction-point-count", "pass", "expected 7, got 7"),
        ("reconstruction-line-count-range", "pass", "expected 6..7, got 7"),
        (
            "reconstruction-degree-structure",
            "pass",
            "expected {'max_degree': 3, 'deg2_points_per_line': '<=1'}, got {'max_degree': 3, 'deg2_points_per_line': 0}",
        ),
        (
            "reconstruction-tau-nu2",
            "pass",
            "expected {'tau': 3, 'nu2': 4}, got {'tau': 3, 'nu2': 4}",
        ),
        (
            "reconstruction-plane-embedding",
            "pass",
            "expected {'embeds': True, 'spanned_points': 7}, got {'embeds': True, 'spanned_points': 7}",
        ),
        ("reconstruction-domination-one", "pass", "expected 1, got 1"),
        ("saturated-packing", "pass", "rank=4, nu2=5, tau=3, lines=5"),
    ],
    "3": [
        ("plane-axioms", "pass", "order=3"),
        ("plane-counts", "pass", "13 points, 13 lines"),
        ("plane-transversal", "pass", "tau=4"),
        ("plane-two-packing", "pass", "nu2=4"),
        ("packing-gap-implication", "pass", "m=13, bound=9, hypothesis=False"),
        ("hyperoval", "skip", "even q required"),
        ("reconstruction", "skip", "even q required"),
        ("saturated-packing", "skip", "even rank required"),
    ],
    "4": [
        ("plane-axioms", "pass", "order=4"),
        ("plane-counts", "pass", "21 points, 21 lines"),
        ("plane-transversal", "pass", "tau=5"),
        ("plane-two-packing", "pass", "nu2=6"),
        ("packing-gap-implication", "pass", "m=21, bound=13, hypothesis=False"),
        ("hyperoval-arc", "pass", "6 points"),
        ("hyperoval-dual-packing", "pass", "6 lines"),
        (
            "reconstruction-uniform-intersecting",
            "pass",
            "expected {'uniform': 5, 'intersecting': True}, got {'uniform': 5, 'intersecting': True}",
        ),
        ("reconstruction-point-count", "pass", "expected 21, got 21"),
        ("reconstruction-line-count-range", "pass", "expected 12..21, got 21"),
        (
            "reconstruction-degree-structure",
            "pass",
            "expected {'max_degree': 5, 'deg2_points_per_line': '<=1'}, got {'max_degree': 5, 'deg2_points_per_line': 0}",
        ),
        (
            "reconstruction-tau-nu2",
            "pass",
            "expected {'tau': 5, 'nu2': 6}, got {'tau': 5, 'nu2': 6}",
        ),
        (
            "reconstruction-plane-embedding",
            "pass",
            "expected {'embeds': True, 'spanned_points': 21}, got {'embeds': True, 'spanned_points': 21}",
        ),
        ("reconstruction-domination-one", "pass", "expected 1, got 1"),
        ("saturated-packing", "pass", "rank=6, nu2=7, tau=4, lines=7"),
    ],
    "5": [
        ("plane-axioms", "pass", "order=5"),
        ("plane-counts", "pass", "31 points, 31 lines"),
        ("plane-transversal", "pass", "tau=6"),
        ("plane-two-packing", "pass", "nu2=6"),
        ("packing-gap-implication", "pass", "m=31, bound=15, hypothesis=False"),
        ("hyperoval", "skip", "even q required"),
        ("reconstruction", "skip", "even q required"),
        ("saturated-packing", "skip", "even rank required"),
    ],
    "7": [
        ("plane-axioms", "pass", "order=7"),
        ("plane-counts", "pass", "57 points, 57 lines"),
        ("plane-transversal", "pass", "tau=8"),
        ("plane-two-packing", "pass", "nu2=8"),
        ("packing-gap-implication", "pass", "m=57, bound=21, hypothesis=False"),
        ("hyperoval", "skip", "even q required"),
        ("reconstruction", "skip", "even q required"),
        ("saturated-packing", "skip", "even rank required"),
    ],
    "9": [
        ("plane-axioms", "pass", "order=9"),
        ("plane-counts", "pass", "91 points, 91 lines"),
        ("plane-transversal", "pass", "tau=10"),
        ("plane-two-packing", "pass", "nu2=10"),
        ("packing-gap-implication", "pass", "m=91, bound=27, hypothesis=False"),
        ("hyperoval", "skip", "even q required"),
        ("reconstruction", "skip", "even q required"),
        ("saturated-packing", "skip", "even rank required"),
    ],
    "11": [
        ("plane-axioms", "pass", "order=11"),
        ("plane-counts", "pass", "133 points, 133 lines"),
        ("plane-solvers", "skip", "size cap: 133 points exceeds solver cap 128"),
        ("hyperoval", "skip", "even q required"),
        ("reconstruction", "skip", "even q required"),
        ("saturated-packing", "skip", "even rank required"),
    ],
    "8": [
        ("plane-axioms", "pass", "order=8"),
        ("plane-counts", "pass", "73 points, 73 lines"),
        ("plane-transversal", "pass", "tau=9"),
        ("plane-two-packing", "pass", "nu2=10"),
        ("packing-gap-implication", "pass", "m=73, bound=25, hypothesis=False"),
        ("hyperoval-arc", "pass", "10 points"),
        ("hyperoval-dual-packing", "pass", "10 lines"),
        ("reconstruction", "skip", "size cap: 146 points exceeds solver cap 128"),
        ("saturated-packing", "pass", "rank=10, nu2=11, tau=6, lines=11"),
    ],
    "16": [
        ("plane-axioms", "pass", "order=16"),
        ("plane-counts", "pass", "273 points, 273 lines"),
        ("plane-solvers", "skip", "size cap: 273 points exceeds solver cap 128"),
        ("hyperoval-arc", "pass", "18 points"),
        ("hyperoval-dual-packing", "pass", "18 lines"),
        ("reconstruction", "skip", "size cap: 546 points exceeds solver cap 128"),
        ("saturated-packing", "skip", "size cap: 171 points exceeds solver cap 128"),
    ],
}


@pytest.mark.parametrize("q", sorted(CHECK_PAPER_ROWS))
def test_check_paper_rows_at_default_caps(capsys, monkeypatch, q):
    monkeypatch.delenv("LINSYS_CAPS", raising=False)
    code, out, _ = run_cli(capsys, "check-paper", "--q", q, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["q"] == int(q)
    rows = [(r["name"], r["status"], r["detail"]) for r in data["rows"]]
    assert rows == CHECK_PAPER_ROWS[q]
