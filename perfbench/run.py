"""replaylab benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 0 --seconds 30 --trace 0

Workloads: desk, train, shield. `spec.json` records why each was chosen,
which layers it bypasses, every metric with its unit, and the end-to-end
metric each per-layer metric should move. The run is closed-loop,
single-threaded and in one process (set-up timing starts fresh processes).

With `--trace 0` the timed stage repeats until `--seconds` of stage time
have been spent, and the end-to-end metrics are medians over repetitions.
With `--trace 1` one traced repetition runs between two untraced ones,
and the per-layer metrics come from spans recorded around the library's
public functions (`spans.py`). Every output is checked: against
`goldens.json` at the default seed, and at any seed for equal outputs
across repetitions and across runs of the same code and seed.

The lines of standard output print every metric with its unit; the last
line is one JSON object with the keys correct, attempted, failed and
metrics. Details, spans and the exact-count record go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy is imported only inside functions that run after main() has limited
# BLAS to one thread, which has to happen before the first import.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=["desk", "train", "shield"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload, print the monotonic clock, exit")
    return p.parse_args(argv)


def load_spec() -> dict:
    return json.loads((HERE / "spec.json").read_text(encoding="utf-8"))


def benchmark_mismatch(spec: dict) -> str | None:
    """BENCHMARK.json must list the workloads, gated end-to-end metrics and
    per-layer metrics of spec.json."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    bench = json.loads(path.read_text(encoding="utf-8"))
    expected = {
        "workloads": [{"name": n, "why": w["why"]}
                      for n, w in spec["workloads"].items()],
        "end_to_end": [{k: m[k] for k in ("name", "unit", "better", "bound")}
                       for m in spec["end_to_end"] if m["bound"] is not None],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")}
                      for m in spec["per_layer"]],
    }
    for key, value in expected.items():
        if bench.get(key) != value:
            return f"BENCHMARK.json {key} does not match perfbench/spec.json"
    return None


def source_digest() -> str:
    """sha256 over the library and benchmark sources: 'the same code'."""
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")) + \
        sorted(HERE.glob("*.json"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def env_stamp(digest: str) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "commit": git_commit(), "source_sha256": digest}


def measure_setup(workload: str, seed: int) -> float:
    """Process start to the first timed call, in a fresh interpreter."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(proc.stdout.split()[-1]) - t0


def tail(values) -> tuple[float, int, int]:
    """(value, percentile, count) for the highest whole percentile that
    leaves at least 10 samples beyond it (nearest rank)."""
    xs = sorted(values)
    n = len(xs)
    pct = max(0, math.floor(100 * (n - 10) / n))
    rank = max(1, math.ceil(pct / 100 * n))
    return xs[rank - 1], pct, n


def same(a, b) -> bool:
    """Exact equality; float arrays may differ in the last bits only."""
    if a == b:
        return True
    import numpy as np
    try:
        x, y = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    except (TypeError, ValueError):
        return False
    return x.shape == y.shape and bool(np.allclose(x, y, rtol=1e-9, atol=1e-12))


def check_against(outputs: dict, reference: dict, checks, what: str) -> None:
    for key, value in reference.items():
        checks.expect(key in outputs and same(outputs[key], value),
                      f"{key} differs from {what}")


def check_counts(path: Path, counts: dict, checks) -> None:
    """Compare with, then extend, the record of earlier runs of the same
    code and seed."""
    known = json.loads(path.read_text()) if path.exists() else {}
    check_against(counts, {k: v for k, v in known.items() if k in counts},
                  checks, "an earlier run of the same code and seed")
    known.update({k: v for k, v in counts.items() if k not in known})
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    os.replace(tmp, path)


def run_timed(wl, seconds: float, checks):
    samples: dict[str, list] = {}
    first = None
    while True:
        walls = samples.setdefault("wall_s", [])
        t0 = time.perf_counter()
        out = wl.stage(len(walls))
        walls.append(time.perf_counter() - t0)
        outputs = wl.after(out, checks, samples)
        del out
        if first is None:
            first = outputs
        else:
            check_against(outputs, first, checks, "the first repetition")
        if sum(walls) + statistics.median(walls) > seconds:
            break
    wl.extras(checks, samples)
    wl.self_checks(checks)
    return samples, first


def run_traced(wl, spans, checks):
    """One traced repetition between two untraced ones; the overhead ratio
    compares it with their mean, so warm-up does not read as a speed-up."""
    samples: dict[str, list] = {}
    untraced = []

    def untraced_rep(rep):
        t0 = time.perf_counter()
        out = wl.stage(rep)
        untraced.append(time.perf_counter() - t0)
        return wl.after(out, checks, samples)

    first = untraced_rep(0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_run("stage")
        t0 = time.perf_counter()
        out = wl.stage(1)
        traced = time.perf_counter() - t0
        tracer.begin_run("after")
        outputs = wl.after(out, checks, samples)
        del out
        tracer.begin_run("extras")
        wl.extras(checks, samples)
    finally:
        tracer.uninstall()
    check_against(outputs, first, checks, "the untraced repetition")
    check_against(untraced_rep(2), first, checks, "the first repetition")
    wl.self_checks(checks)
    return tracer, traced / statistics.mean(untraced), first


def layer_metrics(spec: dict, stats: dict, values: dict) -> dict:
    out = {}
    for m in spec["per_layer"]:
        kind = m["kind"]
        if kind == "value":
            value = values.get(m["name"], 0.0)
        else:
            hits = [s for name, s in stats.items()
                    if name == m["span"] or name.startswith(m["span"] + ".")]
            calls = sum(h[0] for h in hits)
            self_s = sum(h[1] for h in hits)
            flagged = sum(h[2] for h in hits)
            value = {
                "calls": calls,
                "us": self_s / calls * 1e6 if calls else 0.0,
                "ms": self_s / calls * 1e3 if calls else 0.0,
                "ratio": flagged / calls if calls else 0.0,
            }[kind]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def end_to_end(spec, workload, wl, samples, setup, outputs, checks):
    """Every end-to-end metric the spec lists for this workload, and notes
    on how some were taken."""
    wall = statistics.median(samples["wall_s"])
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "env_steps_per_s": wl.transitions / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_ratio": len(checks.failures) / checks.attempted,
    }
    notes = {"wall_s": f"median of {len(samples['wall_s'])} repetitions"}
    if "report_s" in samples:
        values["report_s"] = statistics.median(samples["report_s"])
        values["verify_s"] = samples["verify_s"][0]
        values["record_bytes"] = outputs["record_bytes"]
    if "filter_s" in samples:
        values["filter_ms_p50"] = statistics.median(samples["filter_s"]) * 1e3
        value, pct, n = tail(samples["filter_s"])
        values["filter_ms_tail"] = value * 1e3
        notes["filter_ms_tail"] = f"p{pct} of {n} calls"
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"] if workload in m["workloads"]}, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "replaylab" / "__init__.py").is_file():
        print(f"perfbench: no replaylab sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    problem = benchmark_mismatch(spec)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    # one thread per process, and no environment override of the seed
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("REPLAYLAB_SEED", None)
    sys.path.insert(0, str(SRC))
    import replaylab
    if not Path(replaylab.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: replaylab imported from {replaylab.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    seed = args.seed % 2 ** 32
    workdir = OUT / f"work-{args.workload}-{seed}-{os.getpid()}"
    if args.setup_only:
        workloads.WORKLOADS[args.workload](seed, workdir)
        print(time.monotonic())
        return 0

    setup = [] if args.trace else \
        [measure_setup(args.workload, seed) for _ in range(SETUP_SAMPLES)]
    wl = workloads.WORKLOADS[args.workload](seed, workdir)
    checks = workloads.Checks()
    try:
        if args.trace:
            tracer, overhead, outputs = run_traced(wl, spans, checks)
        else:
            samples, outputs = run_timed(wl, args.seconds, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if seed == spec["default_seed"]:
        goldens = json.loads((HERE / "goldens.json").read_text())
        check_against(outputs, goldens[args.workload], checks,
                      "the pinned golden")
    digest = source_digest()
    counts = dict(outputs)
    detail = {"workload": args.workload, "seed": seed, "trace": args.trace,
              "env": env_stamp(digest), "spec": spec["workloads"][args.workload]}
    if args.trace:
        stats = tracer.stats()
        wl.confirm_split(tracer, stats, checks)
        for name, (calls, _, flagged) in stats.items():
            counts[f"{name}.calls"] = calls
            counts[f"{name}.flagged"] = flagged
        metrics = layer_metrics(spec, stats, {**outputs,
                                              "trace.overhead_ratio": overhead})
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}-seed{seed}.npz")
    check_counts(OUT / "counts" / f"{digest[:16]}-{args.workload}-seed{seed}.json",
                 counts, checks)

    if args.trace:
        shown, notes = metrics, {}
    else:
        shown, notes = end_to_end(spec, args.workload, wl, samples, setup,
                                  outputs, checks)
        gated = {m["name"] for m in spec["end_to_end"] if m["bound"] is not None}
        metrics = {k: v for k, v in shown.items() if k in gated}
        detail["samples"] = samples
    detail.update(metrics=shown, notes=notes, outputs=outputs,
                  failures=checks.failures, attempted=checks.attempted)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str))

    env = detail["env"]
    print(f"perfbench {args.workload} seed={seed} trace={args.trace} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={env['nproc']} commit={env['commit']}")
    for name, m in shown.items():
        note = f"  ({notes[name]})" if name in notes else ""
        value = m["value"]
        shown_value = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:<44} {shown_value} {m['unit']}{note}")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    failed = len(checks.failures)
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
