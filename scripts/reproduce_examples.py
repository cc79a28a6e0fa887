"""Regenerate the three worked examples and print their invariant tables.

Writes the interchange JSON and an SVG for each example into --outdir,
then prints the signature, Poincare and Euler values of every
subchamber together with the internal consistency reports.  Everything
is exact; a FAIL line anywhere means the build is broken.  Before its
PASS line the script prints one digest of every line of the four check
reports of every example (title, name, pass flag and detail, as
oracle_sweep.py digests its reports), so two versions of the package
can be shown to report identically:

    PYTHONPATH=src python scripts/reproduce_examples.py
"""

import argparse
from fractions import Fraction
from pathlib import Path

from xraycross.arrangement import subchambers
from xraycross.engine import (
    EULER,
    POINCARE,
    SIGNATURE,
    check_dim4_positivity,
    check_parity,
    check_sig_equals_poincare_at_i,
    delzant_shortcut,
    propagate,
)
from xraycross.generators import ProjectionMatrix, cpn_xray, save_xray, standard_simplex_xray
from xraycross.ratmath import format_rational
from xraycross.render import render_svg

from oracle_sweep import report_digest

EXAMPLES = {
    "cp3-circle": lambda: cpn_xray(3, ProjectionMatrix(((0, 1, 2, 3),))),
    "cp4-generic": lambda: cpn_xray(
        4,
        ProjectionMatrix(
            (
                (0, 4, 2, Fraction(8, 5), Fraction(12, 5)),
                (0, 0, 4, Fraction(3, 4), Fraction(19, 10)),
            )
        ),
    ),
    "cp4-nongeneric": lambda: cpn_xray(
        4,
        ProjectionMatrix(
            (
                (0, 4, 0, Fraction(3, 2), Fraction(5, 2)),
                (0, 0, 4, Fraction(5, 2), Fraction(3, 2)),
            )
        ),
    ),
    "delzant-triangle": lambda: standard_simplex_xray(2),
}


def show(name, x, outdir):
    save_xray(x, outdir / f"{name}.json")
    svg = outdir / f"{name}.svg"
    svg.write_text(render_svg(x))
    print(f"\n== {name} ==  fingerprint {x.fingerprint()}")
    print(f"   wrote {outdir / f'{name}.json'} and {svg}")

    tables = {spec.name: propagate(x, spec) for spec in (SIGNATURE, POINCARE, EULER)}
    print(f"   {'stratum':<12} {'cell':>4} {'rep':<16} {'sig':>4} {'euler':>6}  poincare")
    for sid, idx in sorted(tables["signature"].values):
        rep = subchambers(x, sid)[idx].rep
        point = "(" + ", ".join(format_rational(c) for c in rep) + ")"
        sig = tables["signature"].value(sid, idx)
        eul = tables["euler"].value(sid, idx)
        poin = tables["poincare"].value(sid, idx)
        print(f"   {sid:<12} {idx:>4} {point:<16} {sig:>4} {eul:>6}  {poin}")

    reports = (
        check_parity(x, tables["signature"], tables["euler"]),
        check_sig_equals_poincare_at_i(x, tables["signature"], tables["poincare"]),
        delzant_shortcut(x, tables["signature"], tables["poincare"], tables["euler"]),
        check_dim4_positivity(x, tables["poincare"], tables["signature"]),
    )
    for report in reports:
        print(f"   {report.title}: {'PASS' if report.passed else 'FAIL'}")
        for line in report.lines:
            if not line.passed:
                print(f"      {line.name}: {line.detail}")
    return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("out"))
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)

    reports = []
    for name, build in EXAMPLES.items():
        reports.extend(show(name, build(), args.outdir))
    ok = all(report.passed for report in reports)
    print(f"\nreport digest: {report_digest(reports)} over {len(reports)} reports")
    print(f"all examples: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
