"""Benchmark of bpbmod: four workloads, end-to-end metrics, and a traced per-layer run.

    python3 perfbench/run.py --workload sweep2d|query2d|highdim|cli \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  A run
sets up, then executes whole rounds of the workload's fixed list of
operations until the rounds have taken S seconds (and at least the
workload's minimum number of rounds), checking every output.  Each
operation's latency is its fastest round.  Between rounds, fresh processes
time the workload's set-up.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 rounds
alternate between untraced and traced, and the metrics are the per-layer
ones of the traced rounds.  See perfbench/README.md.
"""

import os

# one BLAS thread in this process and every process it starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"
SETUP_PROBES = 9


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("sweep2d", "query2d", "highdim", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def probe_setup(workload: str, seed: int, env: dict) -> float:
    """Set-up seconds of the workload in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "setup", workload, str(seed)],
                          env=env, capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout.strip().splitlines()[-1])


class Round:
    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[tuple[str, str | None, str]] = []  # label, fault, reason


def op_seconds(rounds: list[Round]) -> list[float]:
    """Each operation's latency: its fastest round.

    The host runs this code at one of two speeds, about a factor of two
    apart, switching within a second; the fastest of several rounds is the
    operation at the fast speed in nearly every run.
    """
    return [min(lat) for lat in zip(*(r.latencies for r in rounds))]


def run_round(workload, ops, tracer) -> Round:
    """Execute every operation once; only the program calls are timed."""
    rnd = Round()
    workload.before_round()
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = op.run(tracer)
            except Exception as exc:  # an operation that raises has failed
                out = exc
            rnd.latencies.append(time.perf_counter() - t0)
            try:
                reason = (f"{type(out).__name__}: {out}" if isinstance(out, Exception)
                          else op.check(out))
            except Exception as exc:  # so has one whose output cannot be read
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
            if reason is not None:
                rnd.failures.append((op.label, op.fault, reason))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return rnd


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bpbmod" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no bpbmod sources under {SRC}; run from a checkout\n")
        return 2

    import numpy as np

    import reference
    import workloads
    from tracer import Tracer

    reference.selfcheck()
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = workloads.child_env()
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed)
    ops = wl.ops()

    # The set-up probes run one before each round, and the rest after the last,
    # so that a few slow seconds of the host cannot hit all of them.
    probes = 0 if args.trace else SETUP_PROBES
    setup_times: list[float] = []
    rounds: list[Round] = []
    traced: list[Round] = []
    layer_metrics: list[dict] = []
    last_tracer = None
    min_rounds = 2 if args.trace else wl.min_rounds
    measured = 0.0
    while measured < args.seconds or len(rounds) + len(traced) < min_rounds:
        if len(setup_times) < probes:
            setup_times.append(probe_setup(args.workload, args.seed, env))
        start = time.perf_counter()
        if args.trace and len(rounds) > len(traced):
            last_tracer = Tracer()
            traced.append(run_round(wl, ops, last_tracer))
            layer_metrics.append(last_tracer.metrics())
        else:
            rounds.append(run_round(wl, ops, None))
        measured += time.perf_counter() - start
    while len(setup_times) < probes:
        setup_times.append(probe_setup(args.workload, args.seed, env))

    everything = rounds + traced
    attempted = len(ops) * len(everything)
    failures = [f for r in everything for f in r.failures]
    unexpected = [f for f in failures if f[1] is None]
    shown = {}
    for label, fault, reason in failures:
        shown.setdefault(label, (fault, reason))
    for label, (fault, reason) in shown.items():
        tag = f"fault ({fault})" if fault else "UNEXPECTED"
        sys.stderr.write(f"perfbench: {tag}: {label}: {reason}\n")

    if args.trace:
        metrics = {}
        for name in layer_metrics[0]:
            values = [m[name] for m in layer_metrics]
            if isinstance(values[0], int):
                if len(set(values)) > 1:
                    sys.stderr.write(f"perfbench: {name} differs between traced rounds: {values}\n")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        metrics["trace.overhead_s"] = sum(op_seconds(traced)) - sum(op_seconds(rounds))
    else:
        latencies = np.array(op_seconds(rounds)) * 1e3
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": float(latencies.sum()) / 1e3,
            "latency_p50_ms": float(np.quantile(latencies, 0.5)),
            "latency_tail_ms": float(np.quantile(latencies, wl.tail_q)),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }

    result = {"correct": not unexpected, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    workloads.OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    record = dict(result, seed=args.seed, labels=[op.label for op in ops], setup=setup_times,
                  rounds=[r.latencies for r in rounds], traced_rounds=[r.latencies for r in traced])
    (workloads.OUT / f"{stem}-seed{args.seed}.json").write_text(json.dumps(record) + "\n")
    if last_tracer is not None:
        last_tracer.dump(str(workloads.OUT / f"{stem}-spans.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
