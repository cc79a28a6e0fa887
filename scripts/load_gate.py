"""Digest the generate, save and checked-load path on a fixed gate set.

    python3 scripts/load_gate.py                 # the full gate set
    python3 scripts/load_gate.py fixtures 2,5    # chosen inputs only

An input is `fixtures` for the five worked examples, `cube3` for the
Delzant 3-cube, `d,n` for the seeded CP^n projection of that size (seed
1, entries 0..40 over denominators 1..5) or `d,n,g` for a seeded grid
projection with integer entries 0..g, as in arrangement_gate.py.  The
default is the fixtures, seeded (1,2)...(1,11), (2,3)...(2,7),
(3,4)...(3,6), four grid projections and cube3.

For each input it prints:

- one `digest` line: a hash of the canonical JSON, the fingerprint, and
  every wall's vertices, facets and vertex masks, both of the generated
  X-ray and of the X-ray loaded back from that JSON;
- a `time` line: the seconds each stage of the path took, one after
  another on fresh objects: generating the X-ray, `canonical_json`,
  `from_interchange` of that JSON, and each validator on the loaded
  X-ray, in the order the checked load runs them;
- one `violations` block for each of four seeded corruptions that keep
  one maximal stratum (a moved vertex, a mutated weight, a twin
  stratum, a weight rescaled along its ray): every line of each
  validator's list, or the `MalformedXray` text when the corrupted
  document does not load.

It then prints the `MalformedXray` text of every document in a small
malformed set.  Running it in two checkouts and comparing everything but
the `time` lines shows whether a change kept the load path's output byte
for byte.  It ends with a PASS line when every canonical JSON loads back
to itself with no violation and every malformed document is refused.
"""

import argparse
import hashlib
import json
import random
import sys
import time
from fractions import Fraction

from arrangement_gate import GRIDS, inputs
from xraycross.errors import MalformedXray
from xraycross.generators import standard_cube_xray
from xraycross.ratmath import format_rational
from xraycross.xray import (
    canonical_json,
    from_interchange,
    stratum_weights_in,
    validate_consistency,
    validate_darboux,
    validate_poset,
)

SEEDED = [(1, n) for n in range(2, 12)] + [(2, n) for n in range(3, 8)] + [(3, n) for n in range(4, 7)]
LOAD_GRIDS = [g for g in GRIDS if g[:2] <= (3, 6)]
VALIDATORS = (("poset", validate_poset), ("consistency", validate_consistency), ("darboux", validate_darboux))


def walls_digest(h, x) -> None:
    for s in x.strata:
        w = s.wall
        h.update(f"{s.id}|{w.vertices!r}|{w.facets!r}|{w.vertex_masks!r}\n".encode())


def digest(x) -> tuple[str, str]:
    """(digest of x's JSON, fingerprint and walls and of the loaded copy's
    walls, that JSON)."""
    text = canonical_json(x)
    h = hashlib.sha256(text.encode())
    h.update(x.fingerprint().encode())
    walls_digest(h, x)
    walls_digest(h, from_interchange(json.loads(text)))
    return h.hexdigest()[:32], text


def moved_vertex(doc: dict, rng: random.Random) -> dict:
    """One vertex stratum's point moved halfway to another one, in every
    wall that lists it: the first of up to six seeded choices whose
    document loads, or the last one tried."""
    points = {s["id"]: s["vertices"][0] for s in doc["strata"] if s["id"] in doc["vertex_data"]}
    ids = sorted(points)
    rng.shuffle(ids)
    for sid in ids[:6]:
        old = points[sid]
        other = points[rng.choice([t for t in ids if points[t] != old])]
        new = [format_rational((Fraction(a) + Fraction(b)) / 2) for a, b in zip(old, other)]
        moved = json.loads(json.dumps(doc))
        for s in moved["strata"]:
            s["vertices"] = [new if v == old else v for v in s["vertices"]]
        try:
            from_interchange(moved)
        except MalformedXray:
            continue
        break
    return moved


def mutated_weight(doc: dict, rng: random.Random) -> dict:
    """One weight of one vertex replaced by a seeded vector."""
    vd = doc["vertex_data"][rng.choice(sorted(doc["vertex_data"]))]
    j = rng.randrange(len(vd["weights"]))
    vd["weights"][j] = [str(rng.randint(-5, 5)) for _ in vd["weights"][j]]
    return doc


def twin_stratum(doc: dict, rng: random.Random) -> dict:
    """A second copy of a seeded stratum other than the top, under the
    same parents and above all that the first covers."""
    tops = {s["id"] for s in doc["strata"] if not s["parents"]}
    sid = rng.choice(sorted({s["id"] for s in doc["strata"]} - tops))
    twin = f"{sid}-twin"
    for s in doc["strata"]:
        if sid in s["parents"]:
            s["parents"] = s["parents"] + [twin]
    doc["strata"].append({**next(s for s in doc["strata"] if s["id"] == sid), "id": twin})
    if sid in doc["vertex_data"]:
        doc["vertex_data"][twin] = doc["vertex_data"][sid]
    return doc


def rescaled_weight(doc: dict, rng: random.Random) -> dict:
    """One weight of one vertex multiplied by 3/2, seeded among the
    weights that lie off the span of some wall through their vertex, or
    among all weights when none does (every wall of a d = 1 X-ray spans
    the line).  Its ray is unchanged, so the Darboux check reads the
    same, but its class modulo that span is not."""
    x = from_interchange(doc)
    off = []
    for vid in x.vertex_ids:
        for j, w in enumerate(doc["vertex_data"][vid]["weights"]):
            w = tuple(map(Fraction, w))
            if any(w not in stratum_weights_in(x, vid, f) for f in sorted(x.above(vid))):
                off.append((vid, j))
    vid, j = rng.choice(off or [(vid, j) for vid in x.vertex_ids for j in range(x.half_dim)])
    ws = doc["vertex_data"][vid]["weights"]
    ws[j] = [format_rational(Fraction(c) * 3 / 2) for c in ws[j]]
    return doc


CORRUPTIONS = (
    ("moved-vertex", moved_vertex),
    ("mutated-weight", mutated_weight),
    ("twin-stratum", twin_stratum),
    ("rescaled-weight", rescaled_weight),
)


def corruption_lines(label: str, text: str) -> list[str]:
    """The violations block of each corruption of the document text."""
    lines = []
    for name, corrupt in CORRUPTIONS:
        doc = corrupt(json.loads(text), random.Random(f"{label}/{name}"))
        try:
            x = from_interchange(doc)
        except MalformedXray as e:
            lines.append(f"violations {label} {name}: malformed: {e}")
            continue
        for vname, validate in VALIDATORS:
            vio = validate(x)
            lines.append(f"violations {label} {name} {vname}: {len(vio)}")
            lines += [f"  {v}" for v in vio]
    return lines


def malformed_documents(cp3_text: str) -> list[tuple[str, object]]:
    """(label, document) pairs that from_interchange must refuse."""

    def edit(change):
        doc = json.loads(cp3_text)
        change(doc)
        return doc

    def stratum(doc, sid):
        return next(s for s in doc["strata"] if s["id"] == sid)

    def set_weights(sid, weights):
        return lambda doc: doc["vertex_data"][sid].__setitem__("weights", weights)

    big = "1" * 501
    return [
        ("root-not-object", []),
        ("missing-field", edit(lambda doc: doc.pop("vertex_data"))),
        ("bad-rational", edit(lambda doc: stratum(doc, "top").__setitem__("vertices", [["0"], ["1/0"]]))),
        ("repeated-bad-rational", edit(lambda doc: [stratum(doc, s).__setitem__("vertices", [["x"]]) for s in ("v1", "top")])),
        ("bool-coordinate", edit(set_weights("v2", [[True], ["1"], ["2"]]))),
        ("float-after-string", edit(set_weights("v2", [["1"], [1.0], ["2"]]))),
        ("int-after-string", edit(set_weights("v2", [["1"], [1], ["x"]]))),
        ("too-many-digits", edit(set_weights("v3", [["1"], [big], ["2"]]))),
        ("wrong-weight-count", edit(set_weights("v4", [["1"]]))),
        ("unknown-parent", edit(lambda doc: stratum(doc, "v1").__setitem__("parents", ["nowhere"]))),
        ("cycle", edit(lambda doc: stratum(doc, "top").__setitem__("parents", ["v1"]))),
        ("stray-vertex-data", edit(lambda doc: doc["vertex_data"].__setitem__("top", doc["vertex_data"]["v1"]))),
        ("wall-outside-parent", edit(lambda doc: stratum(doc, "v1").__setitem__("vertices", [["7"]]))),
        ("mixed-dimension", edit(lambda doc: stratum(doc, "top").__setitem__("vertices", [["0"], ["1", "2"]]))),
        ("too-many-strata", {"torus_rank": 1, "half_dim": 1, "strata": [{}] * 1001, "vertex_data": {}}),
        (
            "oversized-stratum",
            {"torus_rank": 3, "half_dim": 1, "strata": [{"id": "s", "vertices": [[str(i), str(i * i), str(i**3)] for i in range(60)]}], "vertex_data": {}},
        ),
        (
            "oversized-vertex",
            {
                "torus_rank": 4,
                "half_dim": 120,
                "strata": [{"id": "p", "vertices": [["0"] * 4]}],
                "vertex_data": {"p": {"weights": [[str(i**j) for j in range(4)] for i in range(120)], "signature": 1, "poincare": [1], "euler": 1}},
            },
        ),
    ]


def timed_load(build) -> tuple[dict[str, float], object, list]:
    """(seconds per stage, the loaded X-ray, its violations): the
    generate, save and checked-load path run once more, each stage timed
    on its own."""
    seconds: dict[str, float] = {}

    def run(name, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        seconds[name] = time.perf_counter() - start
        return out

    text = run("canonical_json", canonical_json, run("generate", build))
    x = run("from_interchange", from_interchange, json.loads(text))
    violations = [v for name, validate in VALIDATORS for v in run(name, validate, x)]
    return seconds, x, violations


def all_inputs(sizes: list[str]):
    for size in sizes:
        if size == "cube3":
            yield "cube3", lambda: standard_cube_xray(3)
        else:
            yield from inputs([size])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("sizes", nargs="*", help="fixtures, cube3, d,n or d,n,g (default: the full gate set)")
    args = parser.parse_args(argv)
    sizes = args.sizes or (
        ["fixtures"] + [f"{d},{n}" for d, n in SEEDED] + [f"{d},{n},{g}" for d, n, g in LOAD_GRIDS] + ["cube3"]
    )
    passed = True
    for label, build in all_inputs(sizes):
        h, text = digest(build())
        seconds, x, violations = timed_load(build)
        passed &= not violations and canonical_json(x) == text
        print(f"digest {label}: {h}")
        print(f"time {label}: " + ", ".join(f"{name} {s:.4f} s" for name, s in seconds.items()))
        print("\n".join(corruption_lines(label, text)))
        sys.stdout.flush()
    cp3 = next(build for label, build in inputs(["fixtures"]) if label == "cp3")()
    for label, doc in malformed_documents(canonical_json(cp3)):
        try:
            from_interchange(doc)
        except MalformedXray as e:
            print(f"malformed {label}: {e}")
        else:
            passed = False
            print(f"malformed {label}: accepted")
    print("load gate: " + ("PASS" if passed else "FAIL"))
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
