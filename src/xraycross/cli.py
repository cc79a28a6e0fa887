"""Command-line interface.

Subcommands: gen, validate, chambers, invariants, oracle, render.
Exit codes: 0 success, 1 validation/check failure or data error,
2 usage error (argparse).  Set XRAY_COLOR=0 to disable ANSI color.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .arrangement import locate, subchambers
from .circle import cross_check
from .engine import (
    EULER,
    POINCARE,
    SIGNATURE,
    CheckLine,
    check_parity,
    check_sig_equals_poincare_at_i,
    propagate,
)
from .errors import PropagationError, XrayError
from .generators import (
    ProjectionMatrix,
    cpn_xray,
    load_xray,
    save_xray,
    standard_cube_xray,
    standard_simplex_xray,
)
from .intpoly import IntPolynomial
from .ratmath import format_point, format_rational, rat
from .render import render_svg
from .xray import validate_all


def _color_enabled() -> bool:
    if os.environ.get("XRAY_COLOR") == "0":
        return False
    return sys.stdout.isatty()


def _verdict(passed: bool) -> str:
    word = "PASS" if passed else "FAIL"
    if _color_enabled():
        code = "32" if passed else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def _parse_matrix(text: str) -> ProjectionMatrix:
    rows = tuple(
        tuple(rat(entry.strip()) for entry in row.split(","))
        for row in text.split(";")
    )
    return ProjectionMatrix(rows)


def _parse_point(text: str) -> tuple[Fraction, ...]:
    return tuple(rat(entry.strip()) for entry in text.split(","))


def _print_lines(lines) -> bool:
    """Print each check as 'name: PASS|FAIL', with the detail of a failure; True if all passed."""
    for line in lines:
        suffix = f"  {line.detail}" if line.detail and not line.passed else ""
        print(f"{line.name}: {_verdict(line.passed)}{suffix}")
    return all(line.passed for line in lines)


def _load(args):
    return load_xray(args.input, checked=not args.unchecked)


def cmd_gen(args) -> int:
    if args.kind == "cpn":
        if args.matrix is None or args.n is None:
            raise XrayError("gen cpn requires --n and --matrix")
        x = cpn_xray(args.n, _parse_matrix(args.matrix))
    else:
        if (args.simplex is None) == (args.cube is None):
            raise XrayError("gen delzant requires exactly one of --simplex or --cube")
        x = standard_simplex_xray(args.simplex) if args.simplex is not None else standard_cube_xray(args.cube)
    save_xray(x, args.output)
    m = len(subchambers(x, x.top_id))
    print(f"wrote {args.output}: {len(x.strata)} strata, {m} top-wall subchambers")
    return 0


def cmd_validate(args) -> int:
    x = load_xray(args.input, checked=False)
    violations = validate_all(x)
    for v in violations:
        print(str(v))
    if violations:
        print(f"invalid: {len(violations)} violation(s)")
        return 1
    print(f"valid: {len(x.strata)} strata, fingerprint {x.fingerprint()}")
    return 0


def cmd_chambers(args) -> int:
    x = _load(args)
    sid = args.stratum if args.stratum is not None else x.top_id
    cells = subchambers(x, sid)
    if args.locate is not None:
        cell = locate(x, sid, _parse_point(args.locate))
        print(f"subchamber {cell.index} of '{sid}', rep {format_point(cell.rep)}")
        return 0
    if args.format == "json":
        doc = [
            {
                "index": cell.index,
                "rep": [format_rational(c) for c in cell.rep],
                "vertices": [[format_rational(c) for c in v] for v in cell.cell.vertices],
            }
            for cell in cells
        ]
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"wall '{sid}': {len(cells)} subchamber(s)")
    for cell in cells:
        verts = " ".join(format_point(v) for v in cell.cell.vertices)
        print(f"  {cell.index}: rep {format_point(cell.rep)}  vertices {verts}")
    return 0


_WHICH = {"sig": SIGNATURE, "poincare": POINCARE, "euler": EULER}


def cmd_invariants(args) -> int:
    x = _load(args)
    which = []
    for name in args.which.split(","):
        name = name.strip()
        if name not in _WHICH:
            raise XrayError(f"unknown invariant '{name}' (choose from sig, poincare, euler)")
        if name not in which:
            which.append(name)
    tables = {name: propagate(x, spec) for name, spec in _WHICH.items()}
    parity = check_parity(x, tables["sig"], tables["euler"])
    gauss = check_sig_equals_poincare_at_i(x, tables["sig"], tables["poincare"])
    checks = [
        CheckLine("cycle consistency", True),
        CheckLine("parity sig = euler (mod 2)", parity.passed, "; ".join(l.detail for l in parity.lines if not l.passed)),
        CheckLine("signature = P(i)", gauss.passed, "; ".join(l.detail for l in gauss.lines if not l.passed)),
    ]

    keys = sorted(tables["sig"].values)
    if args.format == "json":
        rows = []
        for sid, chamber in keys:
            row = {
                "stratum": sid,
                "subchamber": chamber,
                "rep": [format_rational(c) for c in subchambers(x, sid)[chamber].rep],
            }
            for name in which:
                value = tables[name].value(sid, chamber)
                row[name] = list(value.coeffs) if isinstance(value, IntPolynomial) else value
            rows.append(row)
        doc = {"rows": rows, "checks": {line.name: line.passed for line in checks}}
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0 if all(line.passed for line in checks) else 1
    header = "stratum subchamber rep " + " ".join(which)
    print(header)
    for sid, chamber in keys:
        rep = subchambers(x, sid)[chamber].rep
        cols = " ".join(str(tables[name].value(sid, chamber)) for name in which)
        print(f"{sid} {chamber} {format_point(rep)} {cols}")
    return 0 if _print_lines(checks) else 1


def cmd_oracle(args) -> int:
    x = _load(args)
    lines = []
    for vid in x.vertex_ids:
        vd = x.stratum(vid).vertex_data
        re, im = vd.seed_poincare.at_i()
        lines += [
            CheckLine(
                f"seed {vid}: signature = P(i)",
                im == 0 and re == vd.seed_signature,
                f"signature {vd.seed_signature}, P(i) = {re}{im:+}i",
            ),
            CheckLine(
                f"seed {vid}: euler = P(-1)",
                vd.seed_poincare(-1) == vd.seed_euler,
                f"euler {vd.seed_euler}, P(-1) = {vd.seed_poincare(-1)}",
            ),
            CheckLine(
                f"seed {vid}: signature = euler (mod 2)",
                (vd.seed_signature - vd.seed_euler) % 2 == 0,
                f"signature {vd.seed_signature}, euler {vd.seed_euler}",
            ),
        ]
    try:
        sig = propagate(x, SIGNATURE)
        poin = propagate(x, POINCARE)
    except PropagationError as e:
        lines.append(CheckLine("cycle consistency", False, str(e)))
    else:
        lines += cross_check(x, x.top_id, sig, poin).lines
    ok = _print_lines(lines)
    print(f"oracle: {_verdict(ok)}")
    return 0 if ok else 1


def cmd_render(args) -> int:
    x = _load(args)
    labels = {}
    if args.label != "none":
        table = propagate(x, _WHICH[args.label])
        top = x.top_id
        labels = {cell.index: str(table.value(top, cell.index)) for cell in subchambers(x, top)}
    svg = render_svg(x, labels)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xraycross",
        description="Weighted X-rays of torus actions: subchambers, recursive invariants, circle oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an X-ray file")
    gen.add_argument("kind", choices=["cpn", "delzant"])
    gen.add_argument("--n", type=int, help="complex dimension for cpn")
    gen.add_argument("--matrix", help="projection matrix, rows ';'-separated, entries ','-separated")
    gen.add_argument("--simplex", type=int, help="standard d-simplex (delzant)")
    gen.add_argument("--cube", type=int, help="unit d-cube (delzant)")
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=cmd_gen)

    val = sub.add_parser("validate", help="run the structural validators")
    val.add_argument("input")
    val.set_defaults(func=cmd_validate)

    cham = sub.add_parser("chambers", help="list subchambers of a wall")
    cham.add_argument("input")
    cham.add_argument("--stratum", help="stratum id (default: top)")
    cham.add_argument("--locate", help="point 'x,y,...' to locate")
    cham.add_argument("--format", choices=["table", "json"], default="table")
    cham.add_argument("--unchecked", action="store_true", help="skip validators on load")
    cham.set_defaults(func=cmd_chambers)

    inv = sub.add_parser("invariants", help="propagate invariants over all subchambers")
    inv.add_argument("input")
    inv.add_argument("--which", default="sig,poincare,euler", help="comma list of sig,poincare,euler")
    inv.add_argument("--format", choices=["table", "json"], default="table")
    inv.add_argument("--unchecked", action="store_true", help="skip validators on load")
    inv.set_defaults(func=cmd_invariants)

    orc = sub.add_parser("oracle", help="cross-check the engine against circle formulas")
    orc.add_argument("input")
    orc.add_argument("--unchecked", action="store_true", help="skip validators on load")
    orc.set_defaults(func=cmd_oracle)

    ren = sub.add_parser("render", help="emit an SVG diagram (d <= 2)")
    ren.add_argument("input")
    ren.add_argument("-o", "--output", required=True)
    ren.add_argument("--label", choices=["sig", "poincare", "euler", "none"], default="sig")
    ren.add_argument("--unchecked", action="store_true", help="skip validators on load")
    ren.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (XrayError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
