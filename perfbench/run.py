#!/usr/bin/env python3
"""The repository benchmark: one closed-loop workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload warm_single --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload warm_single --seed 1 --seconds 10 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``NOTES.md``).  The second-to-last stdout line is the run's
record (seed, environment, request counts); the last line is the result
``{"correct", "attempted", "failed", "metrics"}``.  A reply whose digest
differs from the interpreted golden path makes the run exit 1.
"""

from __future__ import annotations

import argparse
import faulthandler
import gc
import itertools
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("warm_single", "routed_small", "iterate_chain", "cold_validated")

#: Fresh-process set-up samples per run (their median is ``setup_s``).
SETUP_SAMPLES = 5
#: Whole-run watchdog, under the 180 s a run may take.
RUN_LIMIT_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/``, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no repro package under {SRC}; run from a full "
            "repository checkout"
        )
    sys.path.insert(0, SRC)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")


def _keep_temp_files_in_checkout() -> None:
    """Point ``TMPDIR`` (this process and its children) into the
    checkout's scratch area, where multiprocessing puts its forkserver
    socket; kept only when that socket path fits ``AF_UNIX``'s limit."""
    base = os.path.join(ROOT, ".perfbench_tmp")
    if len(os.path.join(base, "pymp-xxxxxxxx", "listener-xxxxxxxx")) > 100:
        return
    os.makedirs(base, exist_ok=True)
    os.environ["TMPDIR"] = base
    tempfile.tempdir = None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- set-up time, each sample in a fresh process ---------------------------


def setup_probe(args) -> int:
    """Child mode: build the system, time it to its first correct warm-up
    pass, print ``{"setup_s": ...}`` and stop."""
    import workloads as wl

    defn = wl.DEFINITIONS[args.workload]
    warm = defn.warmup(args.seed)
    table = wl.GoldenTable()
    for wire in warm:
        table.add(wire)
    cache_dir = wl.scratch_dir(ROOT, f"setup-{defn.name}")
    try:
        started = time.perf_counter()
        system = defn.build(cache_dir)
        wl.serial(system, warm, table, defn.cold, "setup")
        setup_s = time.perf_counter() - started
        print(json.dumps({"setup_s": setup_s}), flush=True)
        if isinstance(system, wl.Routed):
            # Set-up is measured; a graceful TCP close costs ~5 s per
            # sample (timed on its own as router.close_s), so stop the
            # nodes outright and reap them.
            for pid in wl.procs.child_pids(os.getpid()):
                os.kill(pid, signal.SIGKILL)
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
            wl.remove_dir(cache_dir)
            os._exit(0)
        system.close()
    finally:
        wl.remove_dir(cache_dir)
    return 0


def measure_setup(args, samples: int) -> list:
    out = []
    for k in range(samples):
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed + k)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            stdout, stderr = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise RuntimeError("set-up probe timed out")
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{stderr[-2000:]}")
        out.append(json.loads(stdout.strip().splitlines()[-1])["setup_s"])
    return out


# -- the run -----------------------------------------------------------------


def environment(system_transport: str, converters) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": shutil.which(os.environ.get("REPRO_CC") or "cc") is not None,
        "cffi": _has_module("cffi"),
        "converter": converters or ["numpy"],
        "transport": system_transport,
        "backend": "compiled",
    }


def _has_module(name: str) -> bool:
    import importlib.util

    return importlib.util.find_spec(name) is not None


def run(args) -> int:
    import ladder
    import procs
    import workloads as wl

    defn = wl.DEFINITIONS[args.workload]
    started = time.perf_counter()
    plan = wl.plan_run(defn, args.seed, args.seconds)
    table = plan.table
    warm = defn.warmup(args.seed)
    golden_s = time.perf_counter() - started

    setup = [] if args.trace else measure_setup(args, SETUP_SAMPLES)

    cache_dir = wl.scratch_dir(ROOT, defn.name)
    system = wl.start_system(lambda: defn.build(cache_dir))
    layers = {}
    try:
        wl.serial(system, warm, table, defn.cold, "warmup")
        gc.collect()
        steal0, total0 = procs.cpu_ticks()
        feed = itertools.islice(
            defn.stream(random.Random(args.seed)), plan.window_limit)
        if not args.trace:
            windows = [wl.drive(system, feed, table, defn.in_flight,
                                args.seconds, defn.cold, "w")]
        else:
            half = args.seconds / 2
            plain = wl.drive(system, feed, table, defn.in_flight, half,
                             defn.cold, "u")
            tally = ladder.Tally()
            before = ladder.cache_outcomes(system.metrics_snapshots())
            with ladder.traced_calls(tally):
                traced = wl.drive(system, feed, table, defn.in_flight,
                                  half, defn.cold, "t")
            after_snaps = system.metrics_snapshots()
            after = ladder.cache_outcomes(after_snaps)
            windows = [plain, traced]
            samples = ladder.samples_for(plan.ladder)
            extra = ladder.measure(defn, system, table, samples, ROOT)
            layers = dict(
                tally=tally, plain=plain, traced=traced, extra=extra,
                hit_rate=ladder.hit_rate(before, after),
                per_request=ladder.per_request(
                    samples, defn.cold, isinstance(system, wl.Routed)),
            )
        steal1, total1 = procs.cpu_ticks()
        converters = ladder.converters_used(system.metrics_snapshots())
        peak_rss_mb = procs.own_peak_rss_mb() + \
            procs.largest_descendant_peak_mb()
    finally:
        down = wl.teardown(system)
        wl.remove_dir(cache_dir)
        procs.stop_helpers()
    leftover = procs.settle_children(set())

    attempted = sum(w.attempted for w in windows)
    ok = sum(w.ok for w in windows)
    wrong = sum(w.wrong for w in windows)
    latencies = [x for w in windows for x in w.latencies_ms]
    record = {
        "workload": defn.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "in_flight": defn.in_flight,
        "env": environment(system.transport, converters),
        "requests": {
            "sent": attempted, "succeeded": ok, "failed": attempted - ok,
            "wrong_digest": wrong,
        },
        "error_rate": (attempted - ok) / attempted if attempted else 1.0,
        "latency_samples": len(latencies),
        # Reported here, not as a metric: a 10 s cold_validated window
        # has fewer than ten samples beyond its 99th percentile.
        "latency_p99_ms": percentile(latencies, 0.99),
        # Share of host CPU time stolen by other guests during the run.
        "host_steal_share": (steal1 - steal0) / max(1, total1 - total0),
        "golden": {"requests": len(table), "digest": table.digest(),
                   "seconds": golden_s},
        "setup_samples_s": setup,
        "teardown": vars(down),
        "leftover_processes": leftover,
        "failures": [f for w in windows for f in w.failures][:5],
    }
    if not args.trace:
        window = windows[0]
        metrics = {
            "throughput_rps": (window.rps(), "1/s"),
            "latency_p50_ms": (percentile(latencies, 0.50), "ms"),
            "latency_p95_ms": (percentile(latencies, 0.95), "ms"),
            "ok_rate": (ok / attempted, "ratio"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = per_layer_metrics(defn, system, layers, down)
        record["ladder"] = layers["per_request"]
    print(json.dumps({"perfbench_record": record}), flush=True)
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if wrong == 0 else 1


def per_layer_metrics(defn, system, layers, down) -> dict:
    import ladder
    import workloads as wl

    p = layers["per_request"]
    tally, extra = layers["tally"], layers["extra"]
    plain, traced = layers["plain"], layers["traced"]
    routed = isinstance(system, wl.Routed)
    in_process_kernels = isinstance(system, wl.InProcess) and not defn.cold
    router_down = down if routed else extra["router"]
    pool_down = down if defn.cold else extra["pool"]
    if routed:
        router_counters = system.router.metrics.snapshot()["counters"]
        retries = traced.retries / max(1, traced.attempted)
    else:
        router_counters = extra["router_metrics"]["counters"]
        retries = p["router_retries"]
    failovers = sum(v for k, v in router_counters.items()
                    if k.startswith("router_failovers_total"))
    values = {
        "lower.kernel_ms": p["kernel_ms"],
        "lower.kernel_mb_moved": p["mb_moved"],
        "lower.kernel_passes": p["passes"],
        "lower.build_ms": p["build_ms"],
        "lower.input_grid_ms": p["input_grid_ms"],
        "executor.digest_ms": p["digest_ms"],
        "executor.digest_mb": p["digest_mb"],
        "executor.batch_items": (
            tally.mean("batch_items") if in_process_kernels
            else p["batch_items"]),
        "api.admit_us": (
            tally.median("admit_us") if isinstance(system, wl.InProcess)
            else p["admit_us"]),
        "api.handle_ms": p["handle_ms"],
        "api.overhead_ms": p["api_overhead_ms"],
        "api.server_ms": statistics.median(traced.server_ms),
        "proto.decode_us": p["decode_us"],
        "proto.encode_us": p["encode_us"],
        "router.hop_ms": p["hop_ms"],
        "router.submit_us": (
            tally.median("router_submit_us") if routed
            else p["router_submit_us"]),
        "router.retries": float(retries),
        "router.failovers": float(failovers),
        "router.close_s": router_down.close_s,
        "router.leaked_threads": float(router_down.leaked_threads),
        "plancache.hit_rate": layers["hit_rate"],
        "plancache.lookup_us": p["lookup_us"],
        "flow.compile_ms": p["compile_ms"],
        "pool.overhead_ms": p["pool_overhead_ms"],
        "pool.leaked_children": float(pool_down.leaked_children),
        "sim.validate_ms": p["validate_ms"],
        "sim.cycles_per_s": p["cycles_per_s"],
        "sim.cycles": p["cycles"],
        "workload.plan_ms": p["plan_ms"],
        "trace.overhead": 1.0 - traced.rps() / plain.rps(),
        "ladder.coverage": p["coverage"],
    }
    return {
        name: (values[name], unit)
        for name, unit in ladder.PER_LAYER_UNITS.items()
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    _use_checkout_sources()
    _keep_temp_files_in_checkout()
    faulthandler.dump_traceback_later(RUN_LIMIT_S, exit=True)
    sys.path.insert(0, HERE)
    if args.setup_probe:
        return setup_probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
