#!/usr/bin/env python3
"""rotbent benchmark: one command, two workloads, end-to-end or traced.

Run from the repository root:

    python3 bench/run.py --workload search-n10-d4 --seed 1 --seconds 60 --trace 0

It imports rotbent from ./src of the same checkout, times calls into the
public API and `rotbent.cli.main` from outside the package, checks every
output against `bench/reference.py`, writes a results file under
`bench/results/`, and prints one JSON object as its last line of output.
`--trace 0` reports the end-to-end metrics; `--trace 1` wraps rotbent's
layer functions (`bench/tracer.py`) and reports the per-layer metrics.
"""

import os

# one core, whatever the caller's environment: set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
_THREADS_SEEN = os.environ.pop("ROTBENT_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 11
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin(k):
    """Pin the process to the k-th usable CPU, cycling through them.

    A vCPU of a shared host can run slow for a minute or more while another
    runs at full speed; a lone process stays on one vCPU, so its whole run
    could be slow.  Moving between set-ups and rounds gives every call
    samples on each CPU.  `unpin` restores the original set.
    """
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


def unpin():
    if len(CPUS) > 1:
        os.sched_setaffinity(0, CPUS)


def _purge_rotbent():
    for name in [m for m in sys.modules if m == "rotbent" or m.startswith("rotbent.")]:
        del sys.modules[name]


def _import_rotbent():
    rb = importlib.import_module("rotbent")
    importlib.import_module("rotbent.cli")
    if Path(rb.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"rotbent was imported from {rb.__file__}, not from {SRC}")
    return rb


def timed_setup(workload, seed):
    """Import rotbent afresh and build the inputs; returns (seconds, rb, inputs)."""
    _purge_rotbent()
    t0 = time.perf_counter()
    rb = _import_rotbent()
    inputs = workload.setup(rb, seed)
    return time.perf_counter() - t0, rb, inputs


def keep(rounds, r):
    """Append a round; later rounds keep only whether their outputs match the first."""
    if rounds:
        r.outputs = r.outputs == rounds[0].outputs
    rounds.append(r)


def host_probe_ms():
    """Fastest of three runs of a fixed pure-Python loop, in ms.

    It shows how fast the host ran at that moment; it is written to the
    results file to tell a slow host from a slow program, and no metric
    uses it.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(20000):
            s += i * i
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def run_rounds(workload, rb, inputs, seconds):
    """Whole rounds until the next one would end past `seconds`; at least one.

    Returns the rounds, their wall times, a host probe after each, and the
    peak resident memory after the first round: later rounds repeat its
    calls, so a further rise is allocator drift that grows with the number
    of rounds the host's speed allows.
    """
    rounds, walls, probes = [], [], []
    start = time.perf_counter()
    while True:
        pin(len(rounds))
        t0 = time.perf_counter()
        r = workload.run_round(rb, inputs)
        walls.append(time.perf_counter() - t0)
        keep(rounds, r)
        if len(rounds) == 1:
            rss = peak_rss_mib()
        probes.append(host_probe_ms())
        if (time.perf_counter() - start) + walls[-1] > seconds:
            unpin()
            return rounds, walls, probes, rss


def peak_rss_mib():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts():
    digest = hashlib.sha256()
    for path in sorted((SRC / "rotbent").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "ROTBENT_THREADS_in_environment": _THREADS_SEEN,
    }


def _quantile_tail(values):
    """Highest percentile with at least ten samples beyond it, or None below 40 samples."""
    k = len(values)
    if k < 40:
        return None
    pct = 100 * (1 - 10 / k)
    return {"percentile": round(pct, 2), "ms": float(np.percentile(values, pct)) * 1e3}


def end_to_end(workload, args):
    setups = []
    for k in range(SETUP_REPEATS):
        pin(k)
        seconds, rb, inputs = timed_setup(workload, args.seed)
        setups.append(seconds)
    unpin()
    rounds, walls, probes, rss = run_rounds(workload, rb, inputs, args.seconds)
    # every round makes the same calls in the same order; each call's fastest
    # time over the rounds is its time on this machine without interference
    best = np.min([r.latencies for r in rounds], axis=0)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (float(best.sum()), "s"),
        "items_per_s": (rounds[0].items / float(best.sum()), "1/s"),
        "call_ms_p50": (float(np.median(best)) * 1e3, "ms"),
        "peak_rss_mib": (rss, "MiB"),
    }
    extra = {
        "setup_samples_s": setups,
        "round_walls_s": walls,
        "round_wall_median_s": statistics.median(walls),
        "host_probe_ms": {"min": min(probes), "median": statistics.median(probes)},
        "calls_per_round": len(best),
        "call_ms_tail_of_best": _quantile_tail(best),
    }
    return inputs, rounds, metrics, extra


def traced(workload, args):
    _purge_rotbent()
    rb = _import_rotbent()
    setup_tracer = tracing.Tracer()
    restore = tracing.instrument(setup_tracer)
    t0 = time.perf_counter()
    inputs = workload.setup(rb, args.seed)
    setup_inputs_s = time.perf_counter() - t0
    restore()

    # untraced and traced rounds alternate, so the overhead is measured
    # against the same stretch of machine time
    tracer = tracing.Tracer()
    plain, traced_rounds = [], []
    start = time.perf_counter()
    while True:
        pin(len(plain))
        t0 = time.perf_counter()
        keep(plain, workload.run_round(rb, inputs))
        restore = tracing.instrument(tracer)
        try:
            r = workload.run_round(rb, inputs)
        finally:
            restore()
        r.outputs = r.outputs == plain[0].outputs
        traced_rounds.append(r)
        t1 = time.perf_counter()
        if (t1 - start) + (t1 - t0) > args.seconds:
            break
    unpin()
    rounds = len(traced_rounds)
    tracer.count("cli.output_bytes", sum(r.output_bytes for r in traced_rounds))
    best_plain = float(np.min([r.latencies for r in plain], axis=0).sum())
    best_traced = float(np.min([r.latencies for r in traced_rounds], axis=0).sum())
    spans = tracer.summary()
    unfired = sorted(set(workload.expected) - {k for k, v in spans.items() if v["calls"]})
    setup_sanf = setup_tracer.summary().get(tracing.SANF_SPAN, {})
    metrics = tracing.layer_metrics(tracer, rounds)
    metrics.update(
        {
            "setup.inputs_s": (setup_inputs_s, "s"),
            "setup.sanf_built": (setup_sanf.get("calls", 0), "count"),
            "setup.sanf_build_s": (setup_sanf.get("total_s", 0.0), "s"),
            "trace.wall_s": (best_traced, "s"),
            "trace.untraced_wall_s": (best_plain, "s"),
            "trace.overhead_fraction": (best_traced / best_plain - 1, "fraction"),
            "trace.spans": (len(tracer.span_name) // rounds, "count"),
            "trace.unfired_wrappers": (len(unfired) + len(tracer.missing), "count"),
        }
    )
    RESULTS.mkdir(exist_ok=True)
    tracer.write_spans(RESULTS / f"SPANS_{args.workload}_seed{args.seed}.npz")
    extra = {
        "traced_rounds": rounds,
        "unfired_wrappers": unfired,
        "missing_bindings": sorted(tracer.missing),
        "spans_per_run": spans,
    }
    for label in unfired + sorted(tracer.missing):
        print(f"warning: expected wrapper {label} never fired", file=sys.stderr)
    return inputs, plain + traced_rounds, metrics, extra


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "rotbent" / "__init__.py").is_file():
        print(f"error: no rotbent sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference.self_test()
    workload = WORKLOADS[args.workload]

    run = traced if args.trace else end_to_end
    inputs, rounds, metrics, extra = run(workload, args)

    first = rounds[0]
    problems = workload.check(inputs, first, args.seed)
    for k, r in enumerate(rounds[1:], 1):
        if r.outputs is not True:
            problems.append(f"round {k} outputs differ from round 0")
    attempted = sum(len(r.latencies) for r in rounds)
    failed = sum(r.failed for r in rounds)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "item": workload.item,
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "problems": problems[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "machine": machine_facts(),
        **extra,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_{'trace' if args.trace else 'e2e'}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
