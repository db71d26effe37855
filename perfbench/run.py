"""cronlab suite benchmark.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the root of a cronlab checkout.  Each round runs one suite in a
fresh process (``perfbench/child.py``) through ``cronlab.harness.run`` and
checks its outputs.  The benchmark and its rounds run pinned to one CPU, and
every time reported leaves out the steal time the hypervisor reports for that
CPU (``clock.py``).  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` runs whole rounds until ``--seconds`` would be exceeded (at
least one) and reports the end-to-end metrics, medians over rounds.
``--trace 1`` runs one untraced and one traced round and reports the
per-layer metrics of the traced one, with the tracing overhead.

An operation is one suite gate in ``summary.json`` or the benchmark's own
property check of the round; a failed gate or check counts in ``failed``.
``correct`` is false when a round's outputs are missing or when rounds of the
same seed disagree (``summary.json`` bytes or transform counts).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from clock import pin_to_one_cpu, steal_s
from instrument import LAYER_METRICS
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "fft_calls": "count",
    "fft_mpoints": "Msamples",
}
PER_LAYER = {**LAYER_METRICS, "bench.trace_overhead_pct": "%",
             "bench.trace_span_cost_pct": "%", "bench.counter_overhead_pct": "%"}

# Every round runs single-threaded, pinned to one CPU (see clock.py).  With
# OpenBLAS's default thread count its idle workers would spin on that CPU
# during the BLAS reductions of the MKG suite.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "CRONLAB_THREADS": "1"}


class BenchError(Exception):
    pass


def _child_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(CHILD_ENV)
    return env


def run_child(workload, seed, out_dir, trace=False, setup_only=False):
    os.makedirs(out_dir)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed), "--out", out_dir]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    stamps = ["--steal-at", repr(steal_s()), "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd + stamps, env=_child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"{workload} round failed (exit {proc.returncode}):\n"
                         f"{proc.stderr.strip()}")
    with open(os.path.join(out_dir, "result.json")) as fh:
        result = json.load(fh)
    if not setup_only:
        with open(os.path.join(out_dir, "summary.json"), "rb") as fh:
            result["summary_bytes"] = fh.read()
    return result


def tally(rounds):
    """(attempted, failed, correct) over whole rounds."""
    attempted = failed = 0
    correct = True
    for r in rounds:
        records = json.loads(r["summary_bytes"])["records"]
        attempted += len(records) + 1
        failed += sum(1 for rec in records if not rec["passed"])
        failed += 0 if r["check_passed"] else 1
        correct &= not r["scipy_fft_loaded"]
    first = rounds[0]
    for r in rounds[1:]:
        correct &= r["summary_bytes"] == first["summary_bytes"]
        correct &= (r["fft_calls"], r["fft_mpoints"]) == (first["fft_calls"], first["fft_mpoints"])
    return attempted, failed, correct


def measure(workload, seed, seconds, out):
    rounds = []
    t0 = time.monotonic()
    while True:
        rounds.append(run_child(workload, seed, os.path.join(out, f"round{len(rounds)}")))
        elapsed = time.monotonic() - t0
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    setups = [r["setup_s"] for r in rounds]
    for i in range(SETUP_PROBES):
        probe = run_child(workload, seed, os.path.join(out, f"setup{i}"), setup_only=True)
        setups.append(probe["setup_s"])
    metrics = {name: statistics.median(r[name] for r in rounds)
               for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics.update(setup_s=statistics.median(setups), fft_calls=rounds[0]["fft_calls"],
                   fft_mpoints=rounds[0]["fft_mpoints"])
    return rounds, {name: (metrics[name], unit) for name, unit in END_TO_END.items()}


def measure_traced(workload, seed, out):
    base = run_child(workload, seed, os.path.join(out, "untraced"))
    traced = run_child(workload, seed, os.path.join(out, "traced"), trace=True)
    wall = base["wall_s"]
    values = dict(traced["layers"])
    values["bench.trace_overhead_pct"] = 100.0 * (traced["wall_s"] / wall - 1.0)
    values["bench.trace_span_cost_pct"] = 100.0 * traced["span_cost_s"] * traced["spans"] / wall
    values["bench.counter_overhead_pct"] = (100.0 * traced["counter_cost_s"]
                                            * base["fft_calls"] / wall)
    return [base, traced], {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cronlab", "harness.py")):
        print(f"error: no cronlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    # Philox keys are unsigned 64-bit; any integer seed maps to one key
    seed = args.seed % 2 ** 32
    out = os.path.join(OUT_DIR, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    try:
        if args.trace:
            rounds, metrics = measure_traced(args.workload, seed, out)
        else:
            rounds, metrics = measure(args.workload, seed, args.seconds, out)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, correct = tally(rounds)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for r in rounds:
        print(f"round: elapsed {r['elapsed_s']:.3f} s, steal {r['steal_s']:.2f} s; "
              f"check: {r['check_detail']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
