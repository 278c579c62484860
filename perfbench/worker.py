"""One benchmark client: set up a workload, time its passes, check outputs.

Started by run.py as a fresh process.  It prints READY once set-up (import,
input generation, config build and warm-up) is done, then one JSON line
with the raw measurements.  The load is a closed loop: one client runs
each item only after the previous one finished.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _import_program():
    """Import photonsieve from this checkout's sources, not from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import photonsieve
    except ImportError as exc:
        sys.exit(f"cannot import photonsieve from {SRC}: {exc}")
    if not os.path.abspath(photonsieve.__file__).startswith(SRC + os.sep):
        sys.exit(f"photonsieve was imported from {photonsieve.__file__}, "
                 f"not from {SRC}")


def environment(seed):
    """What a result depends on besides the code: machine, versions, seed."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "photonsieve")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "timers": "in-process only: time.perf_counter and ru_maxrss; "
                  "machine-wide tracing is not available",
    }


def _commit():
    """HEAD of the checkout's own git repository, if it is one."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # never look into a repository above the checkout
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def pause():
    """Let run.py time a set-up while this process waits, idle."""
    print("PAUSE", flush=True)
    if sys.stdin.readline().strip() != "GO":
        sys.exit("run.py did not resume the measurement")


def run_passes(wl, seconds, tracer, spans_path, pauses):
    """Alternate untraced and (with a tracer) traced passes for ``seconds``.

    At least one pass of each kind runs.  Pass ids start at 1; the warm-up
    was pass 0.  Up to ``pauses`` times, spread over the run, an untraced
    pass is followed by a pause; paused time does not count toward
    ``seconds``.  Returns the raw numbers.
    """
    from measure import median, tail
    from workloads import run_items

    latencies = {False: [], True: []}  # per pass, keyed by traced
    outputs = []
    start = time.perf_counter()
    paused, taken = 0.0, 0
    traced = False
    pass_id = 0
    while True:
        pass_id += 1
        items = wl.items(pass_id)
        if traced:
            tracer.start(pass_id)
        lat, outs = run_items(items)
        if traced:
            tracer.stop()
        latencies[traced].append(lat)
        outputs.append(outs)
        measured = time.perf_counter() - start - paused
        if measured >= seconds and (tracer is None or latencies[True]):
            break
        if (not traced and taken < pauses
                and measured >= (taken + 1) * seconds / (pauses + 1)):
            t0 = time.perf_counter()
            pause()
            paused += time.perf_counter() - t0
            taken += 1
        traced = tracer is not None and not traced
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, max_share = 0, 0.0
    for outs in outputs:
        chk = wl.check(outs)
        failed += sum(chk.failed)
        max_share = max(max_share, chk.max_share)

    # One latency per item: its fastest pass.  Other tenants of the machine
    # slow it down in bursts of a few seconds, and only ever make an item
    # slower, so the minimum over passes spread out in time is the steady
    # estimate; a pass takes the sum of its items' latencies.  Every pass
    # has fresh inputs of the same work, so a pass that reused results of
    # an earlier one would have to compute them first: the fastest pass
    # cannot hide a cost that only the first call pays.
    def fastest(passes):
        return [min(lat[i] for lat in passes) * 1e3
                for i in range(len(passes[0]))]

    per_item = fastest(latencies[False])
    tail_ms, tail_pct = tail(per_item)
    result = {
        "passes": len(latencies[False]),
        "pass_walls_s": [sum(lat) for lat in latencies[False]],
        "first_pass_s": sum(latencies[False][0]),
        "wall_s": sum(per_item) / 1e3,
        "item_count": len(per_item),
        "item_ms_p50": median(per_item),
        "item_ms_tail": tail_ms,
        "tail_percentile": tail_pct,
        "peak_rss_mb": rss_mb,
        "attempted": sum(len(outs) for outs in outputs),
        "failed": failed,
        "check_max_share": max_share,
    }
    if tracer is not None:
        tracer.write(spans_path)
        layers = tracer.layer_metrics()
        traced_ms = sum(fastest(latencies[True]))
        layers["trace.overhead_share"] = traced_ms / sum(per_item) - 1
        layers["check.max_err"] = max_share
        layers["check.failed_share"] = result["failed"] / result["attempted"]
        result["layers"] = layers
        result["traced_passes"] = len(latencies[True])
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--pauses", type=int, default=0,
                    help="set-up samples run.py takes during the passes")
    args = ap.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}")
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl, warm = workloads.build(args.workload, args.seed, args.smoke,
                                   workdir)
        workloads.run_items(warm.items(0))
        print("READY", flush=True)
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            import tracer as tracing
            tracer = tracing.Tracer()
        spans = os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.json")
        result = run_passes(wl, args.seconds, tracer, spans, args.pauses)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["environment"] = environment(args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
