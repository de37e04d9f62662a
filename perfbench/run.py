"""Run one modgate benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload short-clips --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; modgate is imported from ``src/``
there.  The run repeats whole rounds of the user's path (see pipeline.py)
until ``--seconds`` have passed, checks every round's outputs, and prints one
JSON object as the last line of standard output: the end-to-end metrics with
``--trace 0``, or the per-layer metrics of a traced run with ``--trace 1``.
Each metric is the median over the run's rounds.  The process runs one
thread, with BLAS pinned to one thread.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")


def process_age():
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat", "rb") as fh:
        fields = fh.read().rsplit(b")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22: starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_modgate():
    """Import modgate from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "modgate", "__init__.py")):
        sys.exit(f"error: no modgate sources under {SRC}; run from a source checkout")
    # the script's own directory would shadow standard modules by file name
    sys.path[:] = [SRC, ROOT] + [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    import modgate

    if os.path.dirname(os.path.dirname(os.path.abspath(modgate.__file__))) != SRC:
        sys.exit(f"error: modgate was imported from {modgate.__file__}, not {SRC}")


def main(argv=None):
    args = parse_args(argv)
    import_modgate()
    from perfbench import checks, pipeline, tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.build(workload, args.seed)
    model = pipeline.new_model(inputs, args.seed)
    setup_s = process_age()

    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    errors = []
    seconds = []  # Round.seconds of each round
    layers = []  # per-layer metrics of each traced round
    spans = []  # spans of each traced round
    first = None  # fingerprint of the first round's outputs
    try:
        start = time.perf_counter()
        while not seconds or time.perf_counter() - start < args.seconds:
            if seconds:
                model = pipeline.new_model(inputs, args.seed)
            if args.trace:
                tracer = tracing.Tracer()
                with tracer.install():
                    rnd = pipeline.run_round(workload, inputs, model, args.seed, workdir)
                layers.append(tracer.metrics())
                spans.append(tracer.spans)
                for phase, executions in rnd.executions.items():
                    counted = layers[-1][f"recognition.executions.{phase}"][0]
                    if counted != executions:
                        errors.append(f"{phase}: the wrappers counted {counted} sub-network "
                                      f"calls, the program {executions} executions")
            else:
                rnd = pipeline.run_round(workload, inputs, model, args.seed, workdir)
            seconds.append(rnd.seconds)
            data_bytes = os.path.getsize(rnd.data_path)

            errors += checks.check_dataset(rnd.generated, rnd.loaded, data_bytes,
                                           workload.informative_probs)
            errors += checks.check_training(rnd, workload.epochs)
            errors += checks.check_checkpoint(checks.read_checkpoint(rnd.checkpoint_path),
                                              rnd.model.state(), rnd.eval_model.state())
            fingerprint = [_digest(rnd.data_path), _digest(rnd.checkpoint_path),
                           rnd.report.to_csv()]
            if first is None:
                first = fingerprint
                errors += checks.check_eval(
                    checks.read_checkpoint(rnd.checkpoint_path), rnd.eval_data, inputs[0],
                    inputs[3].eval_segments, rnd.report, pipeline.program_decisions(rnd, inputs))
                errors += checks.check_quality(rnd.report, workloads.N_CLASSES,
                                               workloads.TOP1_MARGIN, workloads.EXPENSIVE)
            elif fingerprint != first:
                errors.append(f"round {len(seconds)} outputs differ from round 1's")
            del rnd
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    for label, estimate in (("best", pipeline.step_seconds), ("median", pipeline.median_seconds)):
        steps = {step: round(estimate(seconds, step), 4) for step in pipeline.STEPS}
        print(f"{args.workload} seed {args.seed}, {len(seconds)} rounds, {label} step seconds: "
              f"{json.dumps(steps)}", file=sys.stderr)
    if args.trace:
        path = os.path.join(OUT, f"trace-{args.workload}.json")
        tracing.write_chrome_trace(spans, path)
        print(f"wrote {path}", file=sys.stderr)
        metrics = {name: {"value": pipeline.median([layer[name][0] for layer in layers]),
                          "unit": unit}
                   for name, unit in tracing.layer_metrics()}
    else:
        metrics = {name: {"value": value, "unit": pipeline.UNITS[name]} for name, value
                   in pipeline.rates(workload, inputs, seconds, data_bytes).items()}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    print(json.dumps({
        "correct": not errors,
        "attempted": len(seconds) * pipeline.operations(workload),
        "failed": 0,
        "metrics": metrics,
    }))
    return 0


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


if __name__ == "__main__":
    sys.exit(main())
