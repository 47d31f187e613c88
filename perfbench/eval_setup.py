"""One set-up of the eval-full workload, in its own process.

Writes the evaluated feature file and trains its checkpoint with
``hscmae train``, then checks that the checkpoint reloads bit-identical to
what was saved. The report (set-up seconds from the first line of this
script, check failures, per-layer metrics when traced) goes to ``--report``.
A separate process keeps the trainer's memory out of the evaluating
process's peak.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import bootstrap  # noqa: E402

bootstrap.prepare()
bootstrap.import_program()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", required=True)
    args = parser.parse_args()

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    run = workloads.Run(seed=args.seed, seconds=0.0, workdir=args.workdir, tracer=tracer)
    with workloads.Captures() as cap:
        workloads.eval_setup(args.seed, args.workdir)
    setup_s = time.perf_counter() - START
    with run.untraced():
        workloads.check_saved(run, cap.saved, "checkpoint")
    report = {"setup_s": setup_s, "failures": run.failures}
    if tracer is not None:
        report["layer_metrics"] = tracer.layer_metrics()
        tracer.write(str(bootstrap.OUT / f"spans-eval-full-seed{args.seed}-{Path(args.report).stem}.json"))
    with open(args.report, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
