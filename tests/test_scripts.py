"""Smoke runs of the scripts the README points to, in subprocesses, and
a check that every package name the benchmark binds still exists."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    """Run scripts/<name>, assert exit 0 and a final PASS line."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1].endswith("PASS")


def test_reproduce_examples_passes(tmp_path):
    run_script("reproduce_examples.py", "--outdir", str(tmp_path))


def test_oracle_sweep_passes():
    run_script("oracle_sweep.py", "--count", "20")


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
