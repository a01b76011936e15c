"""One workload in a fresh process: set up, signal readiness, then measure.

Started by run.py, never by hand.  The first line on stdout is READY once
the package is imported and the workload's inputs are built; run.py times
the set-up from process start to that line.  An untraced worker then times
reference work (see reference.py); with `--mode setup` it prints that time
and exits.  Otherwise it runs pipeline passes until `--seconds` have
passed (at least MIN_PASSES of each kind) and prints one JSON line.
"""

import argparse
import gc
import gzip
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, Operations, PassAborted  # noqa: E402

MIN_PASSES = 2
# Seconds of reference work after set-up and before each untraced pass.
SETUP_REF_S = REF_BEFORE_PASS_S = 0.3
SPANS_DIR = ROOT / ".perfbench"


def environment():
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_pass(workload, tracer=None, calibrate=False):
    """One pipeline pass; returns its record and the Operations it used.

    With `calibrate`, reference work runs before the pass and after each
    operation (see reference.py), and its median repetition time is
    recorded as `ref_s`."""
    import reference

    gc.collect()  # every pass starts without the previous pass's garbage
    ref_times = []
    if tracer:
        ops = Operations(tracer.paused)
    elif calibrate:
        reference.sample(REF_BEFORE_PASS_S, ref_times)
        ops = Operations(after=lambda s: reference.sample(reference.SHARE * s, ref_times))
    else:
        ops = Operations()
    record = {"traced": tracer is not None}
    try:
        summary, quality = workload.run(ops)
        record.update(summary=json.dumps(summary, default=repr), **quality)
    except PassAborted:
        record["summary"] = None
    record["run_s"] = ops.call_s
    if ref_times:
        record["ref_s"] = statistics.median(ref_times)
    return record, ops


def measure(workload, seconds, tracer):
    """Repeat passes for `seconds`; a traced run alternates untraced and
    traced passes, so the overhead compares passes made under the same
    conditions, and an untraced run calibrates every pass.  Returns the
    pass records, the traced layer metrics, and the operation totals."""
    from spans import layer_metrics

    passes, layers, totals = [], [], {"attempted": 0, "failed": 0, "problems": []}
    kinds = (False, True) if tracer else (False,)
    start = time.perf_counter()
    while True:
        for traced in kinds:
            if traced:
                with tracer.recording():
                    record, ops = run_pass(workload, tracer)
                layers.append(layer_metrics(tracer))
            else:
                record, ops = run_pass(workload, calibrate=tracer is None)
            passes.append(record)
            totals["attempted"] += ops.attempted
            totals["failed"] += ops.failed
            totals["problems"] += ops.problems
        if (len(passes) >= MIN_PASSES * len(kinds)
                and time.perf_counter() - start >= seconds):
            return passes, layers, totals


def _samples(label, values):
    return f"{label} over {len(values)} passes: " + ", ".join(
        f"{v:.4f}" for v in sorted(values))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), default="measure")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    # Imported after READY: set-up time covers only the package and the
    # inputs, so a change that imports less of the package shows in it.
    import reference
    from spans import COUNTS, TIMES, Tracer

    # Reference work right after set-up gives the machine speed at set-up.
    ref_s = None
    if not args.trace:
        times = []
        reference.sample(SETUP_REF_S, times)
        ref_s = statistics.median(times)
    if args.mode == "setup":
        print(json.dumps({"setup_ref_s": ref_s}), flush=True)
        return
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    passes, layers, result = measure(workload, args.seconds, tracer)
    if tracer:
        tracer.uninstall()

    problems = result["problems"]
    if len({p["summary"] for p in passes} - {None}) != 1:
        problems.append(f"pipeline outputs differ between passes of seed {args.seed}")
    plain = [p["run_s"] for p in passes if not p["traced"]]
    coverage = [p["cs_coverage"] for p in passes if "cs_coverage" in p]
    notes = [_samples("wall run_s, untraced", plain)]
    if coverage:
        notes.append(f"cs_coverage: {statistics.median(coverage):.6f}")
    if tracer:
        traced = [p["run_s"] for p in passes if p["traced"]]
        counts = [c for _, c in layers]
        if any(c != counts[0] for c in counts):
            problems.append("work counts differ between traced passes")
        metrics = {name: {"value": statistics.median(t[name] for t, _ in layers),
                          "unit": "s"} for name in TIMES}
        metrics.update({name: {"value": counts[0][name], "unit": unit}
                        for name, unit in COUNTS.items()})
        metrics["reach.cs_coverage"] = {
            "value": statistics.median(coverage) if coverage else 0.0, "unit": "ratio"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(plain), "unit": "s"}
        SPANS_DIR.mkdir(exist_ok=True)
        path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
        with gzip.open(path, "wt") as f:
            json.dump(tracer.spans_record(), f)
        notes += [_samples("wall run_s, traced", traced),
                  f"spans of the last traced pass: {path.relative_to(ROOT)}"]
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        notes.append(_samples("reference ref_s", [p["ref_s"] for p in passes]))
        metrics = {"peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
        result.update(setup_ref_s=ref_s,
                      run_per_ref=[p["run_s"] / p["ref_s"] for p in passes])
    result.update(metrics=metrics, notes=notes, environment=environment())
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
