"""Benchmark of the affinecontrol pipelines, run from the root of a checkout.

    python3 perfbench/run.py --workload saddle_grid --seed 0 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  saddle_grid      chain control sets of the planar saddle, 256^2 and two refinements
  floquet_path     a 4000-control hyperbolicity scan and two 801-step continuations
  sphere_infinity  infinity_boundary_chain of a 3-D system on a 24-bin sphere grid

The workload runs in fresh processes with the BLAS pinned to one thread.
With `--trace 0`, set-up (import plus inputs) is timed from process start
in SETUP_SAMPLES processes; the last of them then repeats the pipeline for
`--seconds`, checking every result, and the result holds the end-to-end
metrics.  Their times are scaled to a nominal machine speed by reference
work timed next to each sample (see NOMINAL_REF_S); the wall times are
printed as well.  With `--trace 1` one process alternates untraced and traced
passes; the result holds the per-layer metrics, the tracing overhead among
them, and the spans of the last traced pass go to .perfbench/.

Human-readable lines come first; the last line of stdout is the JSON
result {"correct", "attempted", "failed", "metrics"}.  The exit code is not
0, and no result is printed, when the checkout has no affinecontrol
sources or a worker process fails.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("saddle_grid", "floquet_path", "sphere_infinity")
SETUP_SAMPLES = 4
BLAS_THREADS = "1"
DEADLINE_S = 170.0
# Time of one repetition of the reference work (reference.py) on the 2-core
# Intel Xeon machine the bounds were set on.  run_s and setup_s are wall times
# scaled by NOMINAL_REF_S / (repetition time measured next to them): seconds
# at that machine's speed, so drifts in the speed of a shared machine cancel.
NOMINAL_REF_S = 0.025


class WorkerError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def start_worker(args, mode, deadline):
    """Start a worker and wait for READY; returns (process, set-up seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, env=worker_env(),
                            cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(deadline - time.monotonic(), 0.0))
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - start
        if line.strip() != b"READY":
            raise WorkerError(f"{mode} worker did not get ready: {line!r}")
    except BaseException:
        stop(proc)
        raise
    return proc, setup_s


def finish_worker(proc, deadline):
    """Wait for the worker to exit; returns its remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except BaseException:
        stop(proc)
        raise
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return out.decode()


def stop(proc):
    proc.kill()
    proc.wait()


def report(args, setups, data):
    """Print the human-readable lines and return the result object."""
    metrics = data["metrics"]
    if not args.trace:
        wall = [t for t, _ in setups]
        metrics["run_s"] = {"value": statistics.median(data["run_per_ref"]) * NOMINAL_REF_S,
                            "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(t / ref for t, ref in setups)
                              * NOMINAL_REF_S, "unit": "s"}
        data["notes"].append(f"wall setup_s over {len(wall)} processes: "
                             + ", ".join(f"{t:.4f}" for t in sorted(wall)))
    for note in data["notes"]:
        print(note)
    print(f"error_rate: {data['failed']}/{data['attempted']} = "
          f"{data['failed'] / data['attempted']:.4f}")
    print("environment: " + json.dumps(data["environment"]))
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>16.6f} {m['unit']}")
    for problem in data["problems"]:
        print(f"PROBLEM {problem}")
    return {"correct": not data["problems"] and data["failed"] == 0,
            "attempted": data["attempted"], "failed": data["failed"],
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "affinecontrol" / "__init__.py").is_file():
        sys.exit(f"no affinecontrol sources under {ROOT / 'src'}; "
                 "run from the root of a checkout")

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []  # (wall seconds, reference repetition seconds right after)
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            proc, setup_s = start_worker(args, "setup", deadline)
            line = json.loads(finish_worker(proc, deadline))
            setups.append((setup_s, line["setup_ref_s"]))
        proc, setup_s = start_worker(args, "measure", deadline)
        data = json.loads(finish_worker(proc, deadline).strip().splitlines()[-1])
        setups.append((setup_s, data.get("setup_ref_s")))
    except (WorkerError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        sys.exit(f"benchmark failed: {exc}")
    print(json.dumps(report(args, setups, data)))


if __name__ == "__main__":
    main()
