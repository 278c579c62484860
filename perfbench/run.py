"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload herald --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports photonsieve from that
checkout's ``src``.  It starts one worker that measures passes for
``--seconds`` and checks every output.  While that worker pauses between
passes, it starts set-up-only workers, one at a time, to sample the set-up
time.  With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer ones from a traced run.
It prints the environment and every metric by name and unit, then, as its
last line, one JSON object with the keys correct, attempted, failed and
metrics.  It exits 1 when an output check failed and 2 when the run could
not complete.
``--smoke`` runs the workloads at small sizes, for the benchmark's tests.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 8  # set-ups per run, spread over it; setup_s is the fastest
DEADLINE_S = 170.0  # for the whole run, set-ups included
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RunFailed(Exception):
    pass


def pinned_environment():
    """Child environment with one BLAS thread.

    One client runs one item at a time, on matrices of a few dozen rows at
    most.  On the 2-core reference machine two BLAS threads made the herald
    pass slower and noisier than one (6.4-6.6 s against 5.7-5.8 s for its
    Gaussian task).  The variables must be set before NumPy loads, so they
    go into the environment of the worker processes.
    """
    env = dict(os.environ)
    for var in _BLAS_VARS:
        env[var] = "1"
    return env


def run_worker(args, env, deadline, pauses=0, on_pause=None):
    """Start one worker; returns (seconds until it was set up, its output).

    With ``pauses`` the worker stops that many times between passes and
    waits, while ``on_pause()`` runs, until it is told to go on.  Without,
    it only sets up.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--smoke"] * args.smoke
    cmd += ["--pauses", str(pauses)] if on_pause else ["--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    lines = []
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        for line in proc.stdout:
            if line.strip() == "PAUSE":
                on_pause()
                proc.stdin.write("GO\n")
                proc.stdin.flush()
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise RunFailed(f"worker exited with code {code}: {' '.join(cmd)}")
    return setup_s, "".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error(f"unknown workload {args.workload!r}")
    os.makedirs(OUT, exist_ok=True)
    env = pinned_environment()
    deadline = time.monotonic() + DEADLINE_S
    # Set-up samples are taken while the measuring worker pauses between
    # passes, so they spread over the run instead of sharing one moment.
    samples = 1 if args.trace else SETUP_SAMPLES
    setups = []

    def sample_setup():
        setups.append(run_worker(args, env, deadline)[0])

    try:
        setup_s, text = run_worker(args, env, deadline, samples - 1,
                                   sample_setup)
        setups.insert(0, setup_s)
        while len(setups) < samples:  # when the run had too few passes
            sample_setup()
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    raw = json.loads(text.strip().splitlines()[-1])
    raw["setup_samples_s"] = setups
    raw["setup_s"] = min(setups)
    raw["setup_median_s"] = statistics.median(setups)

    if args.trace:
        wanted, values = spec["per_layer"], raw["layers"]
    else:
        wanted, values = spec["end_to_end"], raw
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{name}.json"), "w") as fh:
        json.dump({**result, "raw": raw}, fh, indent=1)
    print("environment " + json.dumps(raw["environment"]))
    print(f"passes {raw['passes']}, items per pass {raw['item_count']}, "
          f"item_ms_tail is p{raw['tail_percentile']}, "
          f"first pass {raw['first_pass_s']:.6g} s")
    print(f"failed_share {raw['failed'] / raw['attempted']:.6g} "
          f"({raw['failed']} of {raw['attempted']} operations)")
    for key, m in metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
