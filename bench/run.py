"""Run one xraycross benchmark workload and print its metrics.

    python3 bench/run.py --workload tables --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
its src/ directory, never from an installed copy.  Every run makes its
inputs from --seed, checks every op's output against bench/reference.json
and prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics.  The line before it is the full record
(provenance, every metric, samples) for sweep.py and compare.py.

--trace 0 measures the end-to-end metrics for --seconds and at least
MIN_OPS ops.  --trace 1 first
runs a fixed number of ops untraced in a fresh child process, then the
same ops here with every layer's public functions wrapped in spans, and
prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A timed run goes on past --seconds until it has made this many ops, so
# that at least ten samples lie beyond p90.
MIN_OPS = 100

# The speed of this VM drifts by 15-40% over minutes, which swamps any
# change worth measuring.  So every time a run reports is calibrated by
# one rule.  The run times a fixed Fraction computation that does not
# touch xraycross before the first op and after every op, and likewise
# around every step of a set-up batch.  Each op or step time is then
# multiplied by CALIBRATION_REF_S over the median of the calibration
# samples taken within CALIBRATION_WINDOW ops or steps of it.
# CALIBRATION_REF_S is the computation's median time on the 2-vCPU VM
# where the benchmark was defined.
CALIBRATION_REF_S = 0.0086
CALIBRATION_WINDOW = 5
_CALIBRATION_ROWS = [[Fraction((3 * i + 5 * j) % 11 + 1, (i + 2 * j) % 4 + 1) for j in range(7)] for i in range(7)]


def calibration_s() -> float:
    """Time one run of the calibration computation: Gauss-Jordan on a 7x7 rational matrix, six times."""
    start = perf_counter()
    for _ in range(6):
        m = [row[:] for row in _CALIBRATION_ROWS]
        for c in range(7):
            p = next(r for r in range(c, 7) if m[r][c] != 0)
            m[c], m[p] = m[p], m[c]
            for r in range(7):
                if r != c and m[r][c] != 0:
                    f = m[r][c] / m[c][c]
                    m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return perf_counter() - start


def calibrated(times: list[float], calib: list[float]) -> list[float]:
    """Each op or step time scaled by CALIBRATION_REF_S over its local calibration.

    calib holds one sample taken before the first op or step and one
    after each.  The local calibration of time i is the median of the
    samples taken within CALIBRATION_WINDOW of it, before and after.
    """
    w = CALIBRATION_WINDOW
    return [t * CALIBRATION_REF_S / statistics.median(calib[max(0, i + 1 - w) : i + 1 + w]) for i, t in enumerate(times)]


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "xraycross" / "__init__.py").is_file():
        fail(f"no xraycross sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import xraycross

    if Path(xraycross.__file__).resolve().parent != SRC / "xraycross":
        fail(f"imported xraycross from {xraycross.__file__}, not from {SRC}")


def provenance(args, wl) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "xraycross").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mix": [m if isinstance(m, str) else f"({m[0]},{m[1]})" for m in wl.mix],
        "git_commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


class Runner:
    """Set-up, the closed loop of ops, and per-op checking for one workload.

    setup_s holds calibrated batch times and op_s calibrated op times.
    """

    def __init__(self, wl):
        self.wl = wl
        self.setup_s: list[float] = []
        self.raw_op_s: list[float] = []
        self.op_calibration_s: list[float] = []
        self.digests: list[str] = []
        self.errors: list[str] = []
        self.failed = 0
        self.counts: dict[str, float] = {}

    @property
    def op_s(self) -> list[float]:
        return calibrated(self.raw_op_s, self.op_calibration_s)

    def setup(self) -> float:
        """Make one batch of inputs; return the wall time spent, calibrations included."""
        begin = perf_counter()
        step_s: list[float] = []
        calib = [calibration_s()]
        start = perf_counter()
        for _ in self.wl.setup_batch():
            step_s.append(perf_counter() - start)
            calib.append(calibration_s())
            start = perf_counter()
        step_s.append(perf_counter() - start)
        calib.append(calibration_s())
        self.setup_s.append(sum(calibrated(step_s, calib)))
        return perf_counter() - begin

    def run_op(self, k: int, call) -> float:
        """Run op k, making a batch of inputs first if needed; return the set-up time spent."""
        spent = 0.0 if self.wl.ready(k) else self.setup()
        if not self.op_calibration_s:
            self.op_calibration_s.append(calibration_s())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = perf_counter()
            try:
                out = call(self.wl.op, k)
            except Exception as e:  # an op that raises is a failed op; keep going
                out = None
                self.add({"xray.violations": len(getattr(e, "violations", ()))})
                errors = [f"{type(e).__name__}: {e}"]
            elapsed = perf_counter() - start
        self.raw_op_s.append(elapsed)
        if out is not None:
            got, errors, counts = self.wl.check(k, out)
            self.digests.append(got)
            self.add(counts)
        else:
            self.digests.append("")
        self.add({"arrangement.overlap_warnings": sum("overlapping separators" in str(w.message) for w in caught)})
        self.op_calibration_s.append(calibration_s())
        if errors:
            self.failed += 1
            self.errors += [f"op {k}: {e}" for e in errors[:3]]
        return spent

    def add(self, counts: dict) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def loop(self, seconds: float | None, ops: int | None, call=lambda op, k: op(k)) -> None:
        k = 0
        deadline = perf_counter() + (seconds or 0)
        while (k < ops) if ops is not None else (k < MIN_OPS or perf_counter() < deadline):
            # a batch made mid-run is set-up, not measured time
            deadline += self.run_op(k, call)
            k += 1


def end_to_end(runner: Runner) -> dict:
    op_s = runner.op_s
    return {
        "op_s.p50": (statistics.median(op_s), "s"),
        "op_s.p90": (statistics.quantiles(op_s, n=10, method="inclusive")[8] if len(op_s) > 1 else op_s[0], "s"),
        "ops_per_s": (len(op_s) / sum(op_s), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(runner.setup_s), "s"),
    }


def child_record(args, ops: int) -> dict:
    """Run the same ops untraced in a fresh process and return its record."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--ops", str(ops),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        fail(f"untraced child run failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-2])["record"]


def per_layer(runner: Runner, tracer, cache_before, cache_after, untraced: dict) -> dict:
    from tracer import FUNCTIONS, LAYERS

    metrics: dict[str, tuple[float, str]] = {}
    for name in FUNCTIONS:
        metrics[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0), "s")
        metrics[f"{name}.calls"] = (tracer.calls.get(name, 0), "count")
    for layer in LAYERS:
        total = sum(tracer.self_s.get(n, 0.0) for n in FUNCTIONS if n.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (total, "s")
    metrics["op.self_s"] = (tracer.self_s.get("op", 0.0), "s")
    for key in (
        "generators.strata",
        "xray.violations",
        "arrangement.cells",
        "arrangement.edges",
        "arrangement.separators",
        "arrangement.overlap_warnings",
        "engine.table_entries",
        "engine.nontree_edges",
        "circle.edges_checked",
    ):
        metrics[key] = (runner.counts.get(key, 0), "count")
    hits = cache_after.hits - cache_before.hits
    misses = cache_after.misses - cache_before.misses
    metrics["exactgeom.facet_cache.hits"] = (hits, "count")
    metrics["exactgeom.facet_cache.misses"] = (misses, "count")
    metrics["exactgeom.facet_cache.entries"] = (cache_after.currsize, "count")
    metrics["exactgeom.facet_cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    # both means are of calibrated op times, so the drift of the VM's
    # speed between the two processes cancels as far as the calibration
    # follows it
    traced_mean = statistics.fmean(runner.op_s)
    untraced_mean = statistics.fmean(untraced["op_s"])
    metrics["trace_overhead_s"] = (traced_mean - untraced_mean, "s")
    return metrics


def report(metrics: dict, runner: Runner, args, wl, extra: dict) -> None:
    attempted = len(runner.raw_op_s)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  failed {runner.failed}  failed_ratio {runner.failed / attempted:g}")
    for line in runner.errors[:10]:
        print(f"  FAIL {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    record = {
        "provenance": provenance(args, wl),
        "attempted": attempted,
        "failed": runner.failed,
        "failed_ratio": runner.failed / attempted,
        "samples": attempted,
        "inputs_reused": runner.counts.get("inputs_reused", 0),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_samples_s": runner.setup_s,
        **extra,
    }
    print(json.dumps({"record": record}, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="run exactly this many ops instead of --seconds")
    args = parser.parse_args(argv)

    import_program()
    from inputs import REFERENCE_PATH, load_reference
    from workloads import WORKLOADS
    from xraycross import exactgeom

    if not REFERENCE_PATH.is_file():
        fail(f"{REFERENCE_PATH.name} is missing; see make_reference.py")
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    facet_cache = exactgeom.facet_polytopes
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        wl = WORKLOADS[args.workload](args.seed, Path(tmp), load_reference())
        runner = Runner(wl)
        # setup_s is the median of the calibrated times of these batches
        for _ in range(wl.setup_batches):
            runner.setup()
        extra: dict = {}
        if args.trace == 0:
            runner.loop(args.seconds, args.ops)
            metrics = end_to_end(runner)
            extra = {"calibration_s": statistics.median(runner.op_calibration_s)}
            if args.ops is not None:
                extra |= {"op_s": runner.op_s, "digests": runner.digests}
        else:
            from tracer import Tracer

            untraced = child_record(args, wl.trace_ops)
            tracer = Tracer()
            tracer.install()
            cache_before = facet_cache.cache_info()
            # the op's own span holds harness work and untraced code directly under it
            runner.loop(None, wl.trace_ops, call=tracer.wrap("op", lambda op, k: op(k)))
            metrics = per_layer(runner, tracer, cache_before, facet_cache.cache_info(), untraced)
            if untraced["digests"] != runner.digests:
                runner.errors.append("traced and untraced runs produced different table digests")
            if untraced["failed"]:
                runner.errors.append(f"untraced child run had {untraced['failed']} failed op(s)")
    report(metrics, runner, args, wl, extra)
    correct = runner.failed == 0 and not runner.errors
    result = {
        "correct": correct,
        "attempted": len(runner.raw_op_s),
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
