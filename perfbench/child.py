"""Run one cronlab suite in this (fresh) process and write its measurements.

    python3 perfbench/child.py --root DIR --workload NAME --seed S --out DIR
                               --spawned-at T --steal-at S [--trace] [--setup-only]

``--spawned-at`` and ``--steal-at`` are the parent's ``time.monotonic()`` and
``clock.steal_s()`` just before it started this process; ``setup_s`` runs
from there until the suite is entered, less steal.  The suite goes through
``cronlab.harness.run``, the path ``cronlab run`` takes.  The result is
written as JSON to ``<out>/result.json``.
"""

import time  # first, so set-up is measured from the earliest point we control

import argparse
import json
import os
import resource
import sys

from clock import pin_to_one_cpu, steal_s


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--steal-at", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _wrapper_cost_s(raw, wrapped, arg, reps=20000):
    """Per-call time a wrapper adds to ``raw``, from ``reps`` calls of each."""
    times = []
    for fn in (raw, wrapped):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn(arg)
        times.append(time.perf_counter() - t0)
    return max(times[1] - times[0], 0.0) / reps


def main(argv=None):
    args = _parse(argv)
    pin_to_one_cpu()
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import numpy
    import cronlab
    from cronlab import harness
    if not os.path.abspath(cronlab.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"cronlab imported from {cronlab.__file__}, not from {src}")
    import workloads
    from instrument import FftCounter, Tracer, layer_metrics

    config = workloads.config_for(args.workload, args.seed, args.out).validate()
    workloads.install(harness.EXPERIMENTS, args.workload)
    counter = FftCounter()
    counter.install()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.install_suite(harness.EXPERIMENTS, config.experiment)
    setup = time.monotonic() - args.spawned_at
    result = {"setup_s": setup - (steal_s() - args.steal_at)}
    if not args.setup_only:
        cpu0 = time.process_time()
        steal0 = steal_s()
        w0 = time.perf_counter()
        harness.run(config)
        elapsed = time.perf_counter() - w0
        steal = steal_s() - steal0
        cpu = time.process_time() - cpu0
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update(elapsed_s=elapsed, steal_s=steal, wall_s=elapsed - steal, cpu_s=cpu,
                      peak_rss_mb=rss_kib / 1024.0, fft_calls=counter.calls,
                      fft_mpoints=counter.points / 1e6)
        if tracer is not None:
            result["layers"] = layer_metrics(tracer)
            tracer.write(os.path.join(args.out, "spans.csv"))
            # the counter timed on a one-sample transform; a span on a no-op
            result["counter_cost_s"] = _wrapper_cost_s(*counter.fft_pair, numpy.zeros(1))
            result["span_cost_s"] = _wrapper_cost_s(abs, Tracer().wrap("probe")(abs), 0)
            result["spans"] = len(tracer.names)
        from checks import CHECKS
        passed, detail = CHECKS[args.workload](config, args.out)
        result.update(check_passed=bool(passed), check_detail=detail,
                      scipy_fft_loaded="scipy.fft" in sys.modules)
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
