"""Command-line entry point.

    cronlab run --config cfg.json [--seed S] [--out DIR]
    cronlab run --experiment dispersive [--seed S] [--out DIR]
    cronlab report DIR
    cronlab compare DIR_A DIR_B

Config files are JSON objects with the ExperimentConfig fields.  The exit
status is 0 when every gate passes, 1 when one fails and 2 on bad input (an
`error:` line, no traceback).  ``compare`` reads the summaries of two runs of
one experiment and prints each record's two values and its move
|a - b| / max(|a|, |b|, |finite bounds|); it exits 0 when both hold the same
records with the same verdicts and no move exceeds MAX_MOVE, else 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from .errors import CronlabError, PreconditionError, StructuralError
from .harness import ExperimentConfig, all_passed, report_text, run


def _build_parser():
    parser = argparse.ArgumentParser(prog="cronlab",
                                     description="periodic-box harmonic-analysis experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment suite")
    p_run.add_argument("--config", help="JSON config file")
    p_run.add_argument("--experiment", help="suite name (when no config file is given)")
    p_run.add_argument("--seed", type=int, help="override the RNG seed")
    p_run.add_argument("--out", help="override the output directory")

    p_rep = sub.add_parser("report", help="print the stored summary of a run directory")
    p_rep.add_argument("dir")

    p_cmp = sub.add_parser("compare", help="compare the stored summaries of two run directories")
    p_cmp.add_argument("dir_a")
    p_cmp.add_argument("dir_b")
    return parser


def _cmd_run(args) -> int:
    if args.config:
        config = ExperimentConfig.from_json(args.config)
    elif args.experiment:
        config = ExperimentConfig(experiment=args.experiment)
    else:
        print("error: provide --config or --experiment", file=sys.stderr)
        return 2
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    records, paths = run(config)
    sys.stdout.write(report_text(records, config.config_hash()))
    print(f"artifacts: {paths['csv']}  {paths['summary']}")
    return 0 if all_passed(records) else 1


def _cmd_report(args) -> int:
    payload = _load_summary(args.dir)
    records = payload["records"]
    failures = [r for r in records if not r["passed"]]
    print(f"experiment {payload['experiment']}  (config {payload['config_hash']})")
    for r in failures + [r for r in records if r["passed"]]:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"[{status}] {r['id']}: {r['value']}")
    print(f"{len(records) - len(failures)}/{len(records)} criteria passed")
    return 0 if not failures else 1


# the largest move compare accepts: above the rounding moves that a change of
# SIMD or BLAS dispatch makes in the records, below a move that changes a result
MAX_MOVE = 1e-4


def _cmd_compare(args) -> int:
    a, b = _load_summary(args.dir_a), _load_summary(args.dir_b)
    if a["experiment"] != b["experiment"]:
        raise PreconditionError(f"cannot compare a run of {a['experiment']} "
                                f"with a run of {b['experiment']}")

    def number(record, key, where) -> float:
        # a bound the record lacks is infinite
        text = record.get(key, "-inf" if key == "lo" else "inf")
        try:
            return float(text)
        except (TypeError, ValueError):
            raise StructuralError(f"run summary in {where}: record {record['id']!r} has "
                                  f"{key} {text!r}, not a number") from None

    recs_a, recs_b = ({r["id"]: r for r in s["records"]} for s in (a, b))
    ok, worst = recs_a.keys() == recs_b.keys(), 0.0
    for rid in sorted(recs_a.keys() | recs_b.keys()):
        if rid not in recs_a or rid not in recs_b:
            print(f"{rid}: only in {args.dir_a if rid in recs_a else args.dir_b}")
            continue
        pair = [(recs_a[rid], args.dir_a), (recs_b[rid], args.dir_b)]
        va, vb = (number(r, "value", d) for r, d in pair)
        bounds = [abs(x) for r, d in pair for x in (number(r, "lo", d), number(r, "hi", d))
                  if math.isfinite(x)]
        same = recs_a[rid]["value"] == recs_b[rid]["value"] or va == vb
        move = 0.0 if same else abs(va - vb) / max([abs(va), abs(vb)] + bounds)
        move = math.inf if math.isnan(move) else move
        verdicts = recs_a[rid]["passed"] == recs_b[rid]["passed"]
        print(f"{rid}: {recs_a[rid]['value']} {recs_b[rid]['value']}  move {move:.2e}"
              + ("" if verdicts else "  verdicts differ"))
        ok, worst = ok and verdicts and move <= MAX_MOVE, max(worst, move)
    print(f"largest move {worst:.2e} over {len(recs_a)} and {len(recs_b)} records: "
          + ("same" if ok else "differ"))
    return 0 if ok else 1


def _load_summary(run_dir) -> dict:
    path = os.path.join(run_dir, "summary.json")
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PreconditionError(f"cannot read run summary {path}: {exc}") from exc
    _check_summary(payload, path)
    return payload


def _check_summary(payload, path) -> None:
    """The layout machine_summary writes: an object with experiment, config_hash
    and a list of records, each an object with a string id and value and a
    bool passed."""
    ok = (isinstance(payload, dict) and {"experiment", "config_hash"} <= payload.keys()
          and isinstance(payload.get("records"), list)
          and all(isinstance(r, dict) and {"id", "value", "passed"} <= r.keys()
                  for r in payload["records"]))
    if not ok:
        raise StructuralError(f"run summary {path} is not a cronlab summary")
    for r in payload["records"]:
        if not (isinstance(r["id"], str) and isinstance(r["value"], str)
                and isinstance(r["passed"], bool)):
            raise StructuralError(f"run summary {path}: record {r['id']!r} needs a string id "
                                  f"and value and a bool passed, got {r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "compare":
            return _cmd_compare(args)
    except CronlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
