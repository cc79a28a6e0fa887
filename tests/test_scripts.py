"""Smoke runs of the scripts the README points to, in subprocesses, and
a check that every package name the benchmark binds still exists."""

import ast
import importlib
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    """Run scripts/<name>, assert exit 0 and a final PASS line; return its
    output lines."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1].endswith("PASS")
    return result.stdout.splitlines()


# Each script's digest of every line of the check reports it prints:
# title, line name, pass flag and detail.  A change to any of them, in
# any report, changes the digest.
def test_reproduce_examples_passes(tmp_path):
    lines = run_script("reproduce_examples.py", "--outdir", str(tmp_path))
    assert "report digest: 1ac60f4c4aac1763 over 16 reports" in lines


def test_oracle_sweep_passes():
    lines = run_script("oracle_sweep.py", "--count", "20")
    assert "report digest: 98240794bcfdf0a4 over 37 reports" in lines


def test_arrangement_gate_passes():
    """Pinned digests, one of them of a degenerate grid input whose walls
    have pieces of several cell facets and cut planes on wall facets."""
    lines = run_script("arrangement_gate.py", "fixtures", "2,4", "3,4,2", "2,7,3")
    digests = [line for line in lines if line.startswith("digest ")]
    assert digests == [
        "digest cp3: 5a5c3398280552f3ce7bc70546eb6f0d",
        "digest cp4: d6e68ae66080f5981970f916b733a8fe",
        "digest ncp4: 0faac5285cc62997ca9070f8da94deaa",
        "digest simplex2: 34ef9738ee37b8600a2c5907b2b1b01a",
        "digest cube2: 6533549a9dcd6cb39c3685e5c226b68c",
        "digest (2,4): 10a48a8b29f613ce0b6db84a14271b0c",
        "digest (3,4) grid 2: 850bc5fb186c9e33da8372c843935c69",
        "digest (2,7) grid 3: de46efa1be3f4bda0d4d5275149f7886",
    ]


def bench_bindings():
    """(module, attribute) pairs of xraycross that bench/ binds by name.

    The tracer's TRACED table, plus every `from xraycross.<module> import
    name` and every `<module>.name` after `from xraycross import <module>`
    in the benchmark's sources.
    """
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    pairs = {(layer, name) for layer, names in tracer.TRACED.items() for name in names}
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "xraycross":
                modules.update({alias.asname or alias.name: alias.name for alias in node.names})
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("xraycross."):
                pairs.update((node.module.split(".", 1)[1], alias.name) for alias in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                pairs.add((modules[node.value.id], node.attr))
    return pairs


def test_bench_bindings_resolve():
    pairs = bench_bindings()
    assert {("exactgeom", "clip_to_polytope"), ("engine", "INTEGER"), ("generators", "ProjectionMatrix")} <= pairs
    missing = sorted(
        f"{module}.{name}"
        for module, name in pairs
        if not hasattr(importlib.import_module(f"xraycross.{module}"), name)
    )
    assert not missing, f"bench/ binds names the package no longer has: {missing}"


# Functions and methods of the package that nothing in src/, scripts/ or
# bench/ refers to, kept on purpose, each with its reason.
UNREFERENCED = {
    "xray.to_interchange": "the plain-dict reference canonical_json is tested against",
    "IntPolynomial.degree": "a property of the public polynomial type, pinned in test_intpoly.py",
    "SideFunctional.on_vector": "half of what side_functional returns, which bench/ binds by name",
}


def unreferenced_functions():
    """`module.function` and `Class.method` for every top-level function
    and every method (dunders aside) defined in src/ whose name no name,
    attribute or import in src/, scripts/ or bench/ refers to, and that
    bench/ does not bind by name (`bench_bindings`).  References are
    counted on the syntax tree, so a name that appears only inside a
    string or a docstring is not a use."""
    defined = []
    used = {name for _, name in bench_bindings()}
    for top in ("src", "scripts", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.update((node.name.rsplit(".", 1)[-1], node.asname or node.name))
            if top != "src":
                continue
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined.append((path.stem, node.name))
                elif isinstance(node, ast.ClassDef):
                    defined += [
                        (node.name, item.name)
                        for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))
                    ]
    return sorted(f"{owner}.{name}" for owner, name in defined if name not in used)


def test_no_unreferenced_functions():
    """Every function and method of the package is used by the package,
    the scripts or the benchmark, or is listed in UNREFERENCED with its
    reason; an entry that has gained a use leaves the list."""
    assert unreferenced_functions() == sorted(UNREFERENCED)


def test_load_gate_passes():
    """The load path's digests, pinned: generated and loaded-back JSON,
    fingerprints and every wall's vertices, facets and vertex masks."""
    lines = run_script("load_gate.py", "fixtures", "2,4", "3,4,2", "cube3")
    digests = [line for line in lines if line.startswith("digest ")]
    assert digests == [
        "digest cp3: 16db12831ff875ec1407a6b591c5261c",
        "digest cp4: 5cb12a169b6d46e250027568b6fac93a",
        "digest ncp4: f2f74791747309d46e485be16016c4dd",
        "digest simplex2: a08a2d6c170b74056a3eb0209554f73f",
        "digest cube2: 1cb1ae74da2bd020fa4e443832a8e1fe",
        "digest (2,4): df37be06fcdd133513a4699768c05f04",
        "digest (3,4) grid 2: ed9418755db0cea974673fe3903a8035",
        "digest cube3: 6420f8c3c7cd01cf65effa03767c8357",
    ]
    # A weight rescaled along its ray leaves the Darboux check as it was
    # but moves a class modulo a wall span: some input prints the
    # consistency check's violation lines under it.
    block = None
    flagged = []
    for line in lines:
        if line.startswith("violations "):
            block = line
        elif line.startswith("  [consistency] ") and " rescaled-weight consistency: " in block:
            flagged.append(block)
    assert flagged


def test_query_gate_passes():
    """The re-query path's digests, pinned: tables, every check line, the
    circle oracle, restrict_to_line and locate, cold and warm."""
    lines = run_script("query_gate.py", "fixtures", "1,5", "2,4", "3,4,2")
    digests = [line for line in lines if line.startswith("digest ")]
    assert digests == [
        "digest cp3: fe493478f8b1944ada48dbf01b84a36e",
        "digest cp4: 0aa4acb7c5ee781ad35f37d27df6a418",
        "digest ncp4: 0ff2f758c425e1d59e71cfd69e93f6ec",
        "digest simplex2: 6c6e490630361e4ef41876219c0f4f20",
        "digest cube2: e7c90bda9e79cfc5bac4ca39aaa23f9e",
        "digest (1,5): 316939e3a9052ed3ad8acf81f145b034",
        "digest (2,4): f45fed548359b088384d13c3426c49b8",
        "digest (3,4) grid 2: a8b422f2204e94a1b5b569e3a4b93fe4",
    ]


def test_ab_inproc_passes():
    """Two imports of this tree on two ops of each workload: one ratio
    line for the op, and both copies' checks pass with equal digests."""
    src = str(ROOT / "src")
    for workload in ("checked-load", "query", "tables"):
        lines = run_script("ab_inproc.py", src, src, "--workload", workload, "--ops", "2", "--rounds", "2")
        assert lines[0].startswith(f"{workload}: 2 ops x 2 rounds")
        assert len(lines) == 3 and lines[1].startswith("op ")
        assert lines[2] == "ab_inproc: PASS"


# Faults patched into a copy of src/xraycross/engine.py: (text, replacement).
BROKEN = {
    "w_euler doubled": ("    return f - b\n", "    return 2 * (f - b)\n"),
    "propagate raising": ('path-dependent table.\n    """\n', 'path-dependent table.\n    """\n    raise RuntimeError("broken")\n'),
}


@pytest.mark.parametrize("fault", sorted(BROKEN))
def test_ab_inproc_fails_on_a_broken_tree(tmp_path, fault):
    """A copy of src whose engine is broken fails with a FAIL line naming
    the tree, and a raising op gives no traceback."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    engine = tmp_path / "src" / "xraycross" / "engine.py"
    old, new = BROKEN[fault]
    text = engine.read_text()
    assert old in text
    engine.write_text(text.replace(old, new, 1))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_inproc.py"), str(ROOT / "src"), str(tmp_path / "src"), "--workload", "tables", "--ops", "2", "--rounds", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert result.stdout.splitlines()[-1].startswith("ab_inproc: FAIL: change op 0")
    assert "Traceback" not in result.stderr
