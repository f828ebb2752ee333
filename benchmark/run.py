"""Run one systolab benchmark workload and print its metrics as JSON.

    python3 benchmark/run.py --workload sweep-low --seed 1 --seconds 20 --trace 0

Rows run one after another in a single process (a closed loop with one
caller), in whole rounds, until --seconds have passed.  Times are CPU
seconds of the process, scaled to the machine speed that speed.probe()
shows next to them; the record also keeps each row's CPU and wall time.
Every row is checked against the benchmark's own reference evaluator.  The last
line of standard output is {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  A JSON record of the run goes to benchmark/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Extra processes that repeat the set-up, for the median set-up time.
SETUP_PROBES = 4

END_TO_END_UNITS = {
    "setup_s": "s",
    "row_s": "s",
    "rows_per_min": "rows/min",
    "metric_build_s": "s",
    "peak_rss_mb": "MB",
}

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# One caller on one BLAS thread: the matrices here are small, and a second
# spinning BLAS thread only adds noise on a shared machine.  Set before numpy
# is imported; a value in the environment wins.
for _name in BLAS_THREAD_VARIABLES:
    os.environ.setdefault(_name, "1")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop when the first row is ready and print the set-up time")
    return p.parse_args(argv)


def import_systolab():
    """Import the package from this checkout's src/, or exit with an error."""
    if not (SRC / "systolab" / "__init__.py").is_file():
        sys.exit(f"run.py: no systolab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import systolab

    if Path(systolab.__file__).resolve().parent != SRC / "systolab":
        sys.exit(f"run.py: imported systolab from {systolab.__file__}, not {SRC}")
    return systolab


def git_commit():
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARIABLES},
        "git_commit": git_commit(),
    }


def probe_setup(args):
    """Set-up seconds of fresh processes that stop at the first row."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def typical(records, key, round_size):
    """Mean over the rows of a round of each row's median `key` across rounds.

    Every row of the round counts once, whatever its cost, and a row slowed
    in one round by the machine does not move the figure once a run has
    three rounds.
    """
    by_row = [[] for _ in range(round_size)]
    for i, r in enumerate(records):
        if key in r:
            by_row[i % round_size].append(r[key])
    return statistics.mean(statistics.median(v) for v in by_row if v)


def digest(values):
    """sha256 of the row outputs, every float written to full precision."""
    return hashlib.sha256(json.dumps(values, default=repr).encode()).hexdigest()


def main(argv=None):
    args = parse_args(argv)
    sl = import_systolab()
    sys.path.insert(0, str(HERE))
    import checks
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    import numpy as np

    workload = workloads.WORKLOADS[args.workload]
    rows = workload.rows(np.random.default_rng(args.seed))
    pending = next(rows)
    # CPU seconds of this process from its start, interpreter start-up and
    # the imports of numpy and systolab included
    setup_cpu_s = time.process_time()
    speed.probe()  # the first call warms up
    setup_s = setup_cpu_s * speed.REFERENCE_S / speed.probe()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_cpu_s": setup_cpu_s}))
        return 0
    setups = [setup_s] + probe_setup(args)

    tracer = None
    if args.trace:
        import tracing

        overhead_per_call = tracing.wrapper_cost()
        tracer = tracing.Tracer().install(sl)

    records = []
    first_round = []
    start = time.perf_counter()
    deadline = start + args.seconds
    probe_before = speed.probe()
    while True:
        for _ in range(workload.round_size):
            row = pending if pending is not None else next(rows)
            pending = None
            if tracer is not None:
                tracer.row = len(records)
            begin = time.perf_counter()
            try:
                out, row_s, build_s = workload.run(sl, row)
            except sl.SystolabError as exc:
                records.append({"label": row["label"], "failures": {"raised": repr(exc)}})
                probe_before = speed.probe()
                continue
            wall_s = time.perf_counter() - begin
            probe_after = speed.probe()
            probe_s = (probe_before + probe_after) / 2
            # a row's builds come first, right after the probe before it
            build_scale = speed.REFERENCE_S / probe_before
            probe_before = probe_after
            failures = workload.check(row, out)
            records.append({"label": row["label"], "t": row["t"],
                            "row_s": row_s * speed.REFERENCE_S / probe_s,
                            "build_s": build_s * build_scale, "cpu_s": row_s, "wall_s": wall_s,
                            "probe_s": probe_s, "failures": failures})
            if len(records) <= workload.round_size:
                first_round.append(workload.digest_fields(row, out))
        if time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()

    run_failures = []
    if sl.length_increase_violations() != 0:
        run_failures.append(f"length_increase_violations() = {sl.length_increase_violations()}")
    failed = [r for r in records if r["failures"]]
    unexpected = [r for r in failed if set(r["failures"]) != {checks.KNOWN_FAULT}]
    for r in failed:
        for name, reason in r["failures"].items():
            print(f"row {r['label']} t={r.get('t')}: {name}: {reason}", file=sys.stderr)
    for reason in run_failures:
        print(f"run: {reason}", file=sys.stderr)
    correct = not unexpected and not run_failures

    timed = [r for r in records if "row_s" in r]
    row_time = sum(r["row_s"] for r in timed)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "row_s": typical(records, "row_s", workload.round_size),
        "rows_per_min": 60.0 * len(timed) / row_time,
        "metric_build_s": typical(records, "build_s", workload.round_size),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    row_digest = digest(first_round)
    print(f"digest sha256:{row_digest} over the first {len(first_round)} rows")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "wall_s": wall,
        "setup_samples_s": setups, "digest": row_digest, "end_to_end": end_to_end,
        "rows": records, "run_failures": run_failures,
    }
    if tracer is not None:
        per_layer = tracer.per_layer(len(records), overhead_per_call)
        overhead = {"per_call_s": overhead_per_call, "spans": len(tracer.spans),
                    "estimated_share_of_row":
                        per_layer["trace.overhead_s"] * len(timed) / row_time}
        untraced = RESULTS / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["end_to_end"]["row_s"]
            overhead["row_s_traced_minus_untraced"] = end_to_end["row_s"] - base
        record.update(per_layer=per_layer, tracing_overhead=overhead)
        metrics = {name: {"value": v, "unit": tracing.PER_LAYER[name]}
                   for name, v in per_layer.items()}
    else:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in end_to_end.items()}

    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1, default=repr))
    if tracer is not None:
        spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps(tracer.spans))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
