"""Command line front end.

Subcommands: gen, solve, derive, extend, check-paper, iso, embed.
Exit codes: 0 success / property holds, 1 checked property is false,
2 usage or input error. Size caps come from defaults unless the
LINSYS_CAPS environment variable overrides them (comma-separated
key=value pairs). All output is deterministic.
"""

import argparse
import json
import sys as _sys

from . import constructions, core, formats, geometry, solvers
from .errors import LinsysError, NotMember
from .limits import Caps, caps_from_env


def _read_system(path: str, caps: Caps) -> core.LinearSystem:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return formats.loads_json(text, caps)
    return formats.loads_text(text, caps)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cmd_gen(args, caps: Caps) -> int:
    if args.kind == "plane":
        plane = geometry.projective_plane(args.q, caps=caps)
        _emit(formats.dumps_plane_json(plane), args.out)
    elif args.kind == "hyperoval":
        plane = geometry.projective_plane(args.q, caps=caps)
        arc = geometry.hyperoval(plane)
        data = formats.plane_to_dict(plane)
        data["arc"] = sorted(arc.points)
        _emit(_dump(data), args.out)
    elif args.kind == "triangular":
        sys_ = constructions.triangular_system(args.m, caps)
        _emit(formats.dumps_json(sys_), args.out)
    elif args.kind == "fano-minus-line":
        plane = geometry.projective_plane(2, caps=caps)
        data = formats.system_to_dict(core.delete_line(plane.system, args.index))
        data["name"] = f"PG(2,2)-minus-line-{args.index}"
        _emit(_dump(data), args.out)
    return 0


def cmd_solve(args, caps: Caps) -> int:
    sys_ = _read_system(args.file, caps)
    if args.tau:
        result = solvers.transversal_number(sys_, caps=caps)
    elif args.gamma:
        result = solvers.domination_number(sys_, caps=caps)
    else:
        result = solvers.two_packing_number(sys_, caps=caps)
    if args.json:
        print(_dump(result.to_dict()))
    else:
        label = {"transversal": "tau", "domination": "gamma", "two_packing": "nu2"}
        print(f"{label[result.kind]} = {result.value}")
        print("witness:", " ".join(str(v) for v in result.witness))
        print(f"nodes: {result.nodes_explored}")
    return 0


def cmd_derive(args, caps: Caps) -> int:
    sys_ = _read_system(args.file, caps)
    try:
        d = constructions.derive(sys_, args.r, caps=caps)
    except NotMember as e:
        if args.json:
            print(_dump({"member": False, "reason": str(e)}))
        else:
            print(f"not a family member: {e}")
        return 1
    report = {
        "member": True,
        "spanning_line_indices": list(d.spanning_line_indices),
        "pendant_map": {str(k): v for k, v in sorted(d.pendant_map.items())},
        "chain": d.chain,
        "reduced": formats.system_to_dict(d.reduced),
    }
    if args.out:
        _emit(formats.dumps_json(d.reduced), args.out)
    if args.json:
        print(_dump(report))
    else:
        print(f"spanning lines: {list(d.spanning_line_indices)}")
        print(
            "pendants deleted:",
            " ".join(f"{k}->{v}" for k, v in sorted(d.pendant_map.items())),
        )
        print(
            "equalities:",
            ", ".join(f"{k}={v}" for k, v in d.chain.items() if k != "target"),
            f"(target {d.chain['target']})",
        )
        print(
            f"reduced: {len(d.reduced.support)} points,"
            f" {d.reduced.num_lines} lines"
        )
    return 0


def cmd_extend(args, caps: Caps) -> int:
    sys_ = constructions.extend_with_pendant_points(_read_system(args.file, caps), caps)
    _emit(formats.dumps_json(sys_), args.out)
    return 0


def cmd_check_paper(args, caps: Caps) -> int:
    rows = constructions.verification_battery(args.q, caps=caps)
    failed = [r for r in rows if r.status == "fail"]
    if args.json:
        print(_dump({"q": args.q, "rows": [r.to_dict() for r in rows]}))
    else:
        width = max(len(r.name) for r in rows)
        for r in rows:
            print(f"{r.status.upper():5s} {r.name:<{width}s}  {r.detail}")
        print(f"{len(rows) - len(failed)}/{len(rows)} checks pass")
    return 1 if failed else 0


def cmd_iso(args, caps: Caps) -> int:
    a = _read_system(args.file_a, caps)
    b = _read_system(args.file_b, caps)
    cert = core.are_isomorphic(a, b, caps=caps)
    if args.json:
        data = {
            "isomorphic": cert.isomorphic,
            "bijection": (
                {str(k): v for k, v in sorted(cert.point_bijection.items())}
                if cert.point_bijection
                else None
            ),
        }
        print(_dump(data))
    elif cert.isomorphic:
        print("isomorphic")
        print(
            "bijection:",
            " ".join(f"{k}->{v}" for k, v in sorted(cert.point_bijection.items())),
        )
    else:
        print("not isomorphic")
    return 0 if cert.isomorphic else 1


def cmd_embed(args, caps: Caps) -> int:
    sub = _read_system(args.file_sub, caps)
    host = _read_system(args.file_host, caps)
    emb = core.embeds_in(sub, host, caps=caps)
    if args.json:
        data = {
            "embeds": emb is not None,
            "point_map": (
                {str(k): v for k, v in sorted(emb.point_map.items())}
                if emb
                else None
            ),
            "line_map": (
                {str(k): v for k, v in sorted(emb.line_map.items())} if emb else None
            ),
        }
        print(_dump(data))
    elif emb is not None:
        print("embeds")
        print(
            "points:",
            " ".join(f"{k}->{v}" for k, v in sorted(emb.point_map.items())),
        )
        print(
            "lines:",
            " ".join(f"{k}->{v}" for k, v in sorted(emb.line_map.items())),
        )
    else:
        print("no embedding")
    return 0 if emb is not None else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linsys",
        description="Exact invariants and plane derivations for linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a system file")
    gens = gen.add_subparsers(dest="kind", required=True)
    g = gens.add_parser("plane", help="projective plane of order q")
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--out")
    g = gens.add_parser("hyperoval", help="plane plus hyperoval point set")
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--out")
    g = gens.add_parser("triangular", help="pair system on {1..m}")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--out")
    g = gens.add_parser("extend", help="pendant extension of a system file")
    g.add_argument("--in", dest="file", metavar="INFILE", required=True)
    g.add_argument("--out")
    # overrides gen's func: the same handler as the extend command
    g.set_defaults(func=cmd_extend)
    g = gens.add_parser("fano-minus-line", help="order-2 plane minus one line")
    g.add_argument("--index", type=int, required=True)
    g.add_argument("--out")
    gen.set_defaults(func=cmd_gen)

    sv = sub.add_parser("solve", help="exact invariant of a system file")
    kind = sv.add_mutually_exclusive_group(required=True)
    kind.add_argument("--tau", action="store_true", help="transversal number")
    kind.add_argument("--gamma", action="store_true", help="domination number")
    kind.add_argument("--nu2", action="store_true", help="2-packing number")
    sv.add_argument("file")
    sv.add_argument("--json", action="store_true")
    sv.set_defaults(func=cmd_solve)

    dv = sub.add_parser("derive", help="extract spanning subsystem and reduce")
    dv.add_argument("file")
    dv.add_argument("--r", type=int, required=True, help="family rank")
    dv.add_argument("--out", help="write the reduced system here")
    dv.add_argument("--json", action="store_true")
    dv.set_defaults(func=cmd_derive)

    ex = sub.add_parser("extend", help="pendant extension of a system file")
    ex.add_argument("file")
    ex.add_argument("--out")
    ex.set_defaults(func=cmd_extend)

    cp = sub.add_parser("check-paper", help="verification battery for order q")
    cp.add_argument("--q", type=int, required=True)
    cp.add_argument("--json", action="store_true")
    cp.set_defaults(func=cmd_check_paper)

    iso = sub.add_parser("iso", help="isomorphism after pendant reduction")
    iso.add_argument("file_a")
    iso.add_argument("file_b")
    iso.add_argument("--json", action="store_true")
    iso.set_defaults(func=cmd_iso)

    em = sub.add_parser("embed", help="embed one system into another")
    em.add_argument("file_sub")
    em.add_argument("file_host")
    em.add_argument("--json", action="store_true")
    em.set_defaults(func=cmd_embed)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, caps_from_env())
    except LinsysError as e:
        print(f"error: {type(e).__name__}: {e}", file=_sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
