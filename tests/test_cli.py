"""End-to-end runs of the command-line interface in subprocesses."""

import json
import os
import subprocess
import sys

import pytest

CP3 = ["gen", "cpn", "--n", "3", "--matrix", "0,1,2,3"]
NCP4 = ["gen", "cpn", "--n", "4", "--matrix", "0,4,0,3/2,5/2;0,0,4,5/2,3/2"]


def run_cli(*args, color="0"):
    env = dict(os.environ, XRAY_COLOR=color)
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
