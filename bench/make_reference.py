"""Recompute the benchmark's correctness references.

    python3 bench/make_reference.py            # recompute and compare, write nothing
    python3 bench/make_reference.py --write    # replace bench/reference.json

The references pin the program's output at the commit that wrote them:
a digest of the table rows (stratum, subchamber, rep, signature,
Poincare, Euler) of every universe instance the table workloads can
draw, a digest of the interchange JSON of every instance checked-load
can draw, and the row digests of the five worked fixtures, whose
README values are checked before they are stored.

Writing is a deliberate act.  Do it only in a change whose purpose is
to alter the program's output, and say so in that change; a change
that should keep the output fixed must pass against the stored file.
Takes several minutes.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import import_program


def compute() -> dict:
    from inputs import UNIVERSE, digest, fixture_errors, fixtures, projection_rows, size_key, table_rows
    from workloads import CheckedLoad, Query, Tables, invariant_tables
    from xraycross import generators, xray

    def build(d, n, i):
        return generators.cpn_xray(n, generators.ProjectionMatrix(projection_rows(d, n, i)))

    ref: dict = {"universe": UNIVERSE, "tables": {}, "xray": {}, "fixtures": {}}
    for d, n in sorted(set(Tables.mix) | set(Query.sizes)):
        print(f"tables ({d},{n})", file=sys.stderr, flush=True)
        ref["tables"][size_key(d, n)] = [digest(table_rows(*invariant_tables(build(d, n, i))[2])) for i in range(UNIVERSE)]
    for d, n in sorted(set(CheckedLoad.mix)):
        print(f"xray ({d},{n})", file=sys.stderr, flush=True)
        ref["xray"][size_key(d, n)] = [digest(xray.canonical_json(build(d, n, i))) for i in range(UNIVERSE)]
    for name, x in fixtures().items():
        rows = table_rows(*invariant_tables(x)[2])
        errors = fixture_errors(name, rows)
        if errors:
            raise SystemExit(f"fixture {name} disagrees with the README: {errors}")
        ref["fixtures"][name] = digest(rows)
    return ref


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="overwrite bench/reference.json")
    args = parser.parse_args()
    import_program()
    from inputs import REFERENCE_PATH

    ref = compute()
    if args.write:
        REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {REFERENCE_PATH}")
        return 0
    stored = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    differ = [
        f"{group} {key}"
        for group in ("tables", "xray", "fixtures")
        for key in sorted(set(ref[group]) | set(stored.get(group, {})))
        if ref[group].get(key) != stored.get(group, {}).get(key)
    ]
    for line in differ:
        print(f"differs: {line}")
    print("reference matches" if not differ else f"{len(differ)} group(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
