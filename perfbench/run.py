"""Benchmark of toolselect: training, single-query routing and baseline comparison.

    python3 perfbench/run.py --workload train|route|compare --seed N --seconds S --trace 0|1

Run from a checkout holding ``src/toolselect``. With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the workload runs once untraced and once traced, and the JSON
carries the per-layer metrics. Outputs, results and span files go to
``perfbench/out/``.
"""

import os
import time

# one BLAS/OpenMP thread, set before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "route", "compare"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_package():
    """The checkout's own toolselect, or None when the checkout has no source."""
    if not os.path.isfile(os.path.join(SRC, "toolselect", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import toolselect
    if not os.path.abspath(toolselect.__file__).startswith(SRC + os.sep):
        return None
    return toolselect


def environment():
    import numpy as np
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        backend = getattr(__import__("toolselect.kernels", fromlist=["BACKEND"]),
                          "BACKEND", "absent")
    except ImportError:
        backend = "absent"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "kernels_backend": backend, "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0))}


def timed_pass(cls, ts, args, out_dir, tracer=None):
    """setup + run of one workload instance; returns it and its wall time.
    The traced run's two passes skip calibration."""
    workload = cls(ts, args.seed, args.seconds, out_dir, tracer, calibrate=not args.trace)
    start = time.perf_counter()
    workload.run()
    return workload, time.perf_counter() - start


def main(argv=None):
    args = parse_args(argv)
    ts = import_package()
    if ts is None:
        print(f"error: no toolselect package under {SRC}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS, digest

    out_dir = os.path.join(HERE, "out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    cls = WORKLOADS[args.workload]
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))

    workload, wall = timed_pass(cls, ts, args, out_dir)
    problems = []
    if not args.trace:
        metrics = dict(workload.metrics)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = {"setup_s": "s", "peak_rss_mb": "MB", "work_s": "s", "items_per_s": "1/s",
                 "route_mean_ms": "ms", "route_p90_ms": "ms"}
        final = workload
        absent = []
    else:
        untraced_digest = digest(workload)
        del workload
        gc.collect()
        tracer = tracing.Tracer().install()
        try:
            final, traced_wall = timed_pass(cls, ts, args, out_dir, tracer)
        finally:
            tracer.uninstall()
        if digest(final) != untraced_digest:
            problems.append("traced run produced different outputs than the untraced run")
        metrics, absent = tracer.metrics()
        metrics["trace.overhead_s"] = traced_wall - wall
        units = tracing.metric_units()
        tracer.write(os.path.join(HERE, "out", f"trace_{args.workload}.jsonl"))
        if absent:
            print("absent: " + " ".join(absent))

    problems += final.check()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    run_digest = digest(final)
    print(f"digest: {run_digest}")
    print("info: " + json.dumps(final.info, sort_keys=True, default=repr))
    result = {
        "correct": not problems,
        "attempted": int(final.attempted()),
        "failed": int(final.failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    with open(os.path.join(HERE, "out", f"result_{args.workload}_trace{args.trace}.json"),
              "w") as fh:
        json.dump({"args": vars(args), "env": env, "digest": run_digest, "info": final.info,
                   "problems": problems, "absent": absent, "result": result},
                  fh, indent=1, sort_keys=True, default=repr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
