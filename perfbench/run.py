"""hscmae benchmark: desk training, full-scale train steps, full-scale eval.

    python3 perfbench/run.py --workload desk-train --seed 0 --seconds 20 --trace 0

runs one workload in this process. The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics under ``--trace 0`` and the per-layer metrics under ``--trace 1``.
Without ``--workload`` every workload runs in a fresh process, one after
another. See perfbench/README.md for what each figure means.
"""

import argparse
import json
import shutil
import subprocess
import sys

import bootstrap

bootstrap.prepare()
bootstrap.import_program()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def run_one(name, seed, seconds, trace):
    bootstrap.OUT.mkdir(parents=True, exist_ok=True)
    workdir = bootstrap.OUT / f"work-{name}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    import_reps = workloads.import_seconds()
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    run = workloads.Run(seed=seed, seconds=seconds, workdir=str(workdir), tracer=tracer)
    try:
        outcome = workloads.WORKLOADS[name](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = outcome.end_to_end(import_reps)
    attempted = run.info.pop("attempted")
    result = {"correct": not run.failures, "attempted": attempted, "failed": len(run.failed_ops)}
    if tracer is None:
        result["metrics"] = {k: {"value": v, "unit": workloads.END_TO_END_UNITS[k]} for k, v in e2e.items()}
    else:
        layers = tracer.layer_metrics()
        for child in run.child_metrics:
            layers = tracing.merge_metrics(layers, child)
        units = {n: u for n, u, _ in tracing.metric_units()}
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        tracer.write(str(bootstrap.OUT / f"spans-{name}-seed{seed}.json"))

    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}")
    print("  machine " + "  ".join(f"{k} {v}" for k, v in bootstrap.machine().items()))
    label = "traced end-to-end" if trace else "end-to-end"
    print(f"  {label}: " + "  ".join(f"{k} {v:.4g} {workloads.END_TO_END_UNITS[k]}" for k, v in e2e.items()))
    print(f"  operations: {attempted} attempted, {len(run.failed_ops)} failed;  "
          f"{outcome.items_per_op} items each;  op s {', '.join(f'{s:.3g}' for s in outcome.op_s)}")
    print(f"  set-up: median of import {', '.join(f'{s:.3g}' for s in import_reps)} s "
          f"+ median of set-up {', '.join(f'{s:.3g}' for s in outcome.setup_reps)} s")
    if run.info:
        print("  info: " + "  ".join(f"{k} {v}" for k, v in run.info.items()))
    print(f"  checks: {'all passed' if not run.failures else f'{len(run.failures)} failed'}")
    for msg in run.failed_ops + run.failures:
        print(f"    {msg}", file=sys.stderr)
    with open(bootstrap.OUT / f"result-{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(seed, seconds, trace):
    """Every workload in its own process; non-zero if any run fails."""
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              stdin=subprocess.DEVNULL)
        status = status or proc.returncode
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
