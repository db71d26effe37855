"""Command-line entry point.

    cronlab run --config cfg.json [--seed S] [--out DIR]
    cronlab run --experiment dispersive [--seed S] [--out DIR]
    cronlab report DIR

Config files are JSON objects with the ExperimentConfig fields.  The exit
status is 0 when every gate passes, 1 when one fails and 2 on bad input (an
`error:` line, no traceback).
"""

from __future__ import annotations

import argparse
import json
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
    path = os.path.join(args.dir, "summary.json")
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PreconditionError(f"cannot read run summary {path}: {exc}") from exc
    _check_summary(payload, path)
    records = payload["records"]
    failures = [r for r in records if not r["passed"]]
    print(f"experiment {payload['experiment']}  (config {payload['config_hash']})")
    for r in failures + [r for r in records if r["passed"]]:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"[{status}] {r['id']}: {r['value']}")
    print(f"{len(records) - len(failures)}/{len(records)} criteria passed")
    return 0 if not failures else 1


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
    except CronlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
