"""End-to-end runs of the command-line interface in subprocesses."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from xraycross import cli
from xraycross.engine import EULER, POINCARE, SIGNATURE, CheckLine, propagate, rechecked_edges
from test_engine import SEED_BREAKS
from test_generators import UNPARSABLE
from test_xray import NO_STRATA_DOC, two_segments_doc

SRC = str(Path(__file__).resolve().parents[1] / "src")

CP3 = ["gen", "cpn", "--n", "3", "--matrix", "0,1,2,3"]
NCP4 = ["gen", "cpn", "--n", "4", "--matrix", "0,4,0,3/2,5/2;0,0,4,5/2,3/2"]


def run_cli(*args, color="0"):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, XRAY_COLOR=color, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "xraycross", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    cp3 = base / "cp3.json"
    ncp4 = base / "ncp4.json"
    assert run_cli(*CP3, "-o", str(cp3)).returncode == 0
    assert run_cli(*NCP4, "-o", str(ncp4)).returncode == 0
    corrupt = base / "corrupt.json"
    doc = json.loads(cp3.read_text())
    doc["vertex_data"]["v1"]["signature"] = 2
    corrupt.write_text(json.dumps(doc))
    return {"base": base, "cp3": cp3, "ncp4": ncp4, "corrupt": corrupt}


def test_gen_reports_summary(files):
    out = run_cli(*CP3, "-o", str(files["base"] / "again.json"))
    assert out.returncode == 0
    assert "5 strata" in out.stdout
    assert "3 top-wall subchambers" in out.stdout


def test_gen_is_deterministic(files):
    twice = files["base"] / "twice.json"
    run_cli(*NCP4, "-o", str(twice))
    assert twice.read_bytes() == files["ncp4"].read_bytes()


def test_gen_delzant(files):
    out = run_cli("gen", "delzant", "--simplex", "2", "-o", str(files["base"] / "tri.json"))
    assert out.returncode == 0
    assert "7 strata" in out.stdout
    out = run_cli("gen", "delzant", "--cube", "2", "-o", str(files["base"] / "sq.json"))
    assert out.returncode == 0
    assert "9 strata" in out.stdout


def test_validate_ok(files):
    out = run_cli("validate", str(files["ncp4"]))
    assert out.returncode == 0
    assert out.stdout.startswith("valid: 11 strata")


def test_validate_reports_violations(files):
    doc = json.loads(files["ncp4"].read_text())
    doc["strata"] = [
        {**s, "parents": [p for p in s["parents"] if p != "w1-2"]}
        for s in doc["strata"]
        if s["id"] != "w1-2"
    ]
    broken = files["base"] / "broken.json"
    broken.write_text(json.dumps(doc))
    out = run_cli("validate", str(broken))
    assert out.returncode == 1
    assert "invalid" in out.stdout
    assert "darboux" in out.stdout


@pytest.mark.parametrize(
    ("name", "line"),
    [
        ("two-tops", "[top] t1: expected a unique maximal stratum, found ['t1', 't2']"),
        ("no-strata", "[top] : expected a unique maximal stratum, found []"),
    ],
)
def test_validate_rejects_several_or_no_maximal_strata(files, name, line):
    """Two disjoint unit segments, and a document with no strata, are
    invalid: every query starts from the one maximal stratum."""
    docs = {"two-tops": two_segments_doc(), "no-strata": NO_STRATA_DOC}
    path = files["base"] / f"{name}.json"
    path.write_text(json.dumps(docs[name]))
    out = run_cli("validate", str(path))
    assert out.returncode == 1
    assert out.stdout.splitlines() == [line, "invalid: 1 violation(s)"]
    out = run_cli("invariants", str(path))
    assert out.returncode == 1
    assert line in out.stderr


def test_unchecked_flag_skips_validation(files):
    broken = files["base"] / "broken.json"
    assert run_cli("chambers", str(broken)).returncode == 1
    out = run_cli("chambers", str(broken), "--unchecked")
    assert out.returncode == 0


def test_chambers_table(files):
    out = run_cli("chambers", str(files["cp3"]))
    assert out.returncode == 0
    assert "wall 'top': 3 subchamber(s)" in out.stdout


def test_chambers_json(files):
    out = run_cli("chambers", str(files["ncp4"]), "--stratum", "w2-3-4-5", "--format", "json")
    doc = json.loads(out.stdout)
    assert [cell["rep"] for cell in doc] == [["3/4", "13/4"], ["2", "2"], ["13/4", "3/4"]]


def test_chambers_locate(files):
    out = run_cli("chambers", str(files["ncp4"]), "--stratum", "w2-3-4-5", "--locate", "2,2")
    assert out.returncode == 0
    assert "subchamber 1" in out.stdout


def test_chambers_locate_singular_point(files):
    out = run_cli("chambers", str(files["ncp4"]), "--locate", "4,0")
    assert out.returncode == 1
    assert "smaller stratum" in out.stderr


@pytest.mark.parametrize("extra", [(), ("--format", "json"), ("--locate", "1")])
def test_chambers_unknown_stratum(files, extra):
    out = run_cli("chambers", str(files["cp3"]), "--stratum", "nope", *extra)
    assert out.returncode == 1
    assert out.stderr == "error: no stratum 'nope'\n"
    assert out.stdout == ""


def test_invariants_table(files):
    out = run_cli("invariants", str(files["cp3"]))
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    top = [l for l in lines if l.startswith("top ")]
    assert [l.split()[3] for l in top] == ["1", "0", "1"]
    assert [l.split()[4] for l in top] == ["1+t^2+t^4", "1+2t^2+t^4", "1+t^2+t^4"]
    assert "cycle consistency: PASS" in out.stdout
    assert "parity sig = euler (mod 2): PASS" in out.stdout
    assert "signature = P(i): PASS" in out.stdout


def test_invariants_json(files):
    out = run_cli("invariants", str(files["ncp4"]), "--which", "sig,poincare", "--format", "json")
    doc = json.loads(out.stdout)
    assert all(doc["checks"].values())
    beta = next(
        r for r in doc["rows"] if r["stratum"] == "top" and r["rep"] == ["4/3", "4/3"]
    )
    assert beta["sig"] == 0
    assert beta["poincare"] == [1, 0, 2, 0, 1]


def stdout_digest(out):
    return hashlib.sha256(out.stdout.encode()).hexdigest()[:16]


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize(("name", "digest"), [
    ("cp3", {"table": "9d15b29c76f33ecb", "json": "2821dd75c67f5b9b"}),
    ("ncp4", {"table": "39aeedd04c274075", "json": "402a2cfab0857c4e"}),
])
def test_invariants_stdout_pinned(files, name, digest, fmt):
    """invariants' stdout, byte for byte, on the intact examples."""
    out = run_cli("invariants", str(files[name]), "--format", fmt)
    assert (out.returncode, out.stderr) == (0, "")
    assert stdout_digest(out) == digest[fmt]


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_invariants_names_the_broken_seed(files, fmt):
    """When propagation fails, the first seed line that fails comes
    before the propagation message."""
    out = run_cli("invariants", str(files["corrupt"]), "--format", fmt)
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr == (
        "error: seed v1: signature = P(i) fails (signature 2, P(i) = 1+0i); "
        "wall 'top': signature is path-dependent between chambers 1 and 2: difference 0, crossing sum 1\n"
    )


def test_invariants_error_unchanged_when_seeds_hold(files):
    """Seeds that satisfy every identity yet disagree with the X-ray give
    the propagation message alone."""
    doc = json.loads(files["cp3"].read_text())
    doc["vertex_data"]["v1"].update(poincare=[1, 0, 1, 0, 1], euler=3)
    path = files["base"] / "consistent-seeds.json"
    path.write_text(json.dumps(doc))
    out = run_cli("invariants", str(path))
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr == (
        "error: wall 'top': poincare is path-dependent between chambers 1 and 2: "
        "difference -2t^2-2t^4-2t^6-t^8, crossing sum -t^2\n"
    )


def test_invariants_rejects_unknown_name(files):
    out = run_cli("invariants", str(files["cp3"]), "--which", "sig,betti")
    assert out.returncode == 1
    assert "unknown invariant" in out.stderr


def test_oracle_pass(files):
    for name in ("cp3", "ncp4"):
        out = run_cli("oracle", str(files[name]))
        assert out.returncode == 0
        assert "oracle: PASS" in out.stdout
        assert "FAIL" not in out.stdout


def test_oracle_corrupted_seed_fails(files):
    out = run_cli("oracle", str(files["corrupt"]))
    assert out.returncode == 1
    assert "FAIL" in out.stdout
    assert "seed v1: signature = P(i): FAIL" in out.stdout


def test_oracle_corrupted_seed_reports_cycle_failure(files):
    out = run_cli("oracle", str(files["corrupt"]))
    assert "cycle consistency: FAIL" in out.stdout
    assert out.stdout.splitlines()[-1] == "oracle: FAIL"


# oracle's exit code, stdout digest and FAIL lines on cp3 and ncp4, intact
# and with v2's seed broken as SEED_BREAKS breaks it.
ORACLE_STDOUT = {
    ("cp3", "intact"): (0, "d2d9c762d8765208", []),
    ("cp3", "signature"): (1, "39235b4deac334b3", [
        "seed v2: signature = P(i): FAIL  signature 2, P(i) = 1+0i",
        "seed v2: signature = euler (mod 2): FAIL  signature 2, euler 1",
        "cycle consistency: FAIL  wall 'top': signature is path-dependent between chambers 1 and 2: "
        "difference 2, crossing sum 1",
    ]),
    ("cp3", "euler"): (1, "11f26881e0627b79", [
        "seed v2: euler = P(-1): FAIL  euler 2, P(-1) = 1",
        "seed v2: signature = euler (mod 2): FAIL  signature 1, euler 2",
    ]),
    ("cp3", "poincare"): (1, "3bba6047f1ec8745", [
        "seed v2: signature = P(i): FAIL  signature 1, P(i) = 1+1i",
        "seed v2: euler = P(-1): FAIL  euler 1, P(-1) = 0",
        "cycle consistency: FAIL  wall 'top': poincare is path-dependent between chambers 1 and 2: "
        "difference -t^2-t^3, crossing sum -t^2",
    ]),
    ("ncp4", "intact"): (0, "7db5e26343bda5aa", []),
    ("ncp4", "signature"): (1, "b41f566a6dc18824", [
        "seed v2: signature = P(i): FAIL  signature 2, P(i) = 1+0i",
        "seed v2: signature = euler (mod 2): FAIL  signature 2, euler 1",
        "cycle consistency: FAIL  wall 'w1-2': signature is path-dependent between chambers -1 and 0: "
        "difference 1, crossing sum 2",
    ]),
    ("ncp4", "euler"): (1, "9f064e6c2017cc86", [
        "seed v2: euler = P(-1): FAIL  euler 2, P(-1) = 1",
        "seed v2: signature = euler (mod 2): FAIL  signature 1, euler 2",
    ]),
    ("ncp4", "poincare"): (1, "6d38c6fb65917c8a", [
        "seed v2: signature = P(i): FAIL  signature 1, P(i) = 1+1i",
        "seed v2: euler = P(-1): FAIL  euler 1, P(-1) = 0",
        "cycle consistency: FAIL  wall 'w1-2': poincare is path-dependent between chambers -1 and 0: "
        "difference 1, crossing sum 1+t",
    ]),
}


@pytest.mark.parametrize(("name", "seed"), sorted(ORACLE_STDOUT))
def test_oracle_stdout_pinned(files, name, seed):
    path = files[name]
    if seed != "intact":
        doc = json.loads(path.read_text())
        doc["vertex_data"]["v2"][seed] = SEED_BREAKS[seed][0]
        path = files["base"] / f"{name}-v2-{seed}.json"
        path.write_text(json.dumps(doc))
    out = run_cli("oracle", str(path))
    code, digest, fails = ORACLE_STDOUT[(name, seed)]
    assert (out.returncode, out.stderr) == (code, "")
    lines = out.stdout.splitlines()
    assert [line for line in lines[:-1] if "FAIL" in line] == fails
    assert lines[-1] == ("oracle: PASS" if code == 0 else "oracle: FAIL")
    assert stdout_digest(out) == digest


def test_color_disabled_means_no_escape_codes(files):
    out = run_cli("oracle", str(files["cp3"]), color="0")
    assert "\x1b[" not in out.stdout


def test_render(files):
    svg_path = files["base"] / "ncp4.svg"
    out = run_cli("render", str(files["ncp4"]), "-o", str(svg_path), "--label", "sig")
    assert out.returncode == 0
    svg = svg_path.read_text()
    assert svg.count("<line") == 5
    assert svg.count("<text") == 3

    again = files["base"] / "ncp4b.svg"
    run_cli("render", str(files["ncp4"]), "-o", str(again), "--label", "sig")
    assert again.read_bytes() == svg_path.read_bytes()


def test_render_label_none(files):
    svg_path = files["base"] / "plain.svg"
    run_cli("render", str(files["cp3"]), "-o", str(svg_path), "--label", "none")
    assert "<text" not in svg_path.read_text()


def test_usage_errors_exit_2():
    assert run_cli("nosuchcommand").returncode == 2
    assert run_cli("gen", "cpn").returncode == 2
    assert run_cli().returncode == 2


def test_missing_file_exit_1():
    out = run_cli("validate", "/nonexistent/path.json")
    assert out.returncode == 1
    assert out.stderr.startswith("error:")


def test_gen_cpn_requires_matrix(files):
    out = run_cli("gen", "cpn", "--n", "3", "-o", str(files["base"] / "x.json"))
    assert out.returncode == 1
    assert "requires --n and --matrix" in out.stderr


def test_gen_delzant_requires_exactly_one_shape(files):
    out = run_cli(
        "gen", "delzant", "--simplex", "2", "--cube", "2", "-o", str(files["base"] / "x.json")
    )
    assert out.returncode == 1
    assert "exactly one" in out.stderr


def test_parse_error_diagnostics(files):
    bad = files["base"] / "syntax.json"
    bad.write_text('{"torus_rank": 1,')
    out = run_cli("validate", str(bad))
    assert out.returncode == 1
    assert "parse error" in out.stderr
    assert "line" in out.stderr


@pytest.mark.parametrize("name", sorted(UNPARSABLE))
def test_unparsable_file_is_a_parse_error(files, name):
    bad = files["base"] / f"{name}.json"
    bad.write_bytes(UNPARSABLE[name])
    out = run_cli("validate", str(bad))
    assert out.returncode == 1
    assert out.stderr.startswith("error: parse error")
    assert "Traceback" not in out.stderr


def test_invariants_cycle_line_counts_rechecked_edges(cp3, ncp4, files):
    """The cycle consistency line carries the number of edges propagate
    re-checked; its detail is printed on failure only, so the default
    output still reads `cycle consistency: PASS`."""
    for x in (cp3, ncp4):
        tables = {name: propagate(x, spec) for name, spec in (("sig", SIGNATURE), ("poincare", POINCARE), ("euler", EULER))}
        line = cli._invariant_checks(x, tables)[0]
        n = rechecked_edges(x)
        assert n > 0
        assert line == CheckLine("cycle consistency", True, f"{n} re-checked edge(s) agree in each of 3 tables")
    out = run_cli("invariants", str(files["ncp4"]))
    assert "cycle consistency: PASS" in out.stdout.splitlines()
