"""Benchmark for eraserlang: end-to-end and per-layer figures.

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py                 # every workload, one after another

Run from the root of a source checkout; the package is imported from
``src/``.  Each repeat of a workload runs in a fresh interpreter
(``worker.py``) with PYTHONHASHSEED fixed, so every repeat, on every
commit, starts from the same cold state.  Repeats go on until
``--seconds`` have passed (at least three); the figures are medians over
the repeats.  ``setup_s`` is the median over short-lived interpreters
that only start and import the package, spread through the run.

The run and everything it starts stay on one CPU.  Times are seconds at
a reference host speed: each elapsed time is scaled by how long a fixed
probe took on that CPU around it (``hostspeed.py``), which cancels the
swings a shared host puts into raw times.

Workloads (closed loop, one caller, inputs made from ``--seed``):

sweep     exhaustive short words, where the module caches do most of the work
long      long, unrelated queries, where the caches hardly help
identity  the intersection identity walk at fixed (p, n)
cli       one subprocess per command, covering every subcommand

An operation is one query, except in sweep, where it is a batch of 1024
queries of one kind.  End-to-end metrics:

setup_s          interpreter start until ``import eraserlang`` returns
                 (``eraserlang.cli`` for cli)
wall_s           time spent inside the timed operations of one repeat
ops_per_s        operations per second of wall_s
op_p50_ms        median operation latency
op_tail_ms       the highest percentile with at least 10 operations
                 beyond it; the percentile and the count are printed
                 (both over the operations of one repeat, each taken at
                 its median over the repeats, which run the same ones)
peak_rss_mb      ru_maxrss of the worker (cli: of its largest child)
retained_blocks  sys.getallocatedblocks() after the workload and a
                 gc.collect(), minus the count before ``import
                 eraserlang``: the package plus all the workload left
                 allocated (cli: the same commands once more in-process
                 through ``eraserlang.cli.main``)

failed_ratio, wrong answers plus exceptions plus wrong exit codes over
operations, is printed with them; the JSON line gives it as ``failed``
of ``attempted``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repeats and prints the per-layer metrics, with
``trace.overhead_s`` the traced minus the untraced ``wall_s``.  A layer
the workload does not call reads 0.  Spans of the last traced repeat go
to ``bench/out/``.  The last line of stdout is one JSON object (correct,
attempted, failed, metrics).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed, clock, pin_to_one_cpu
from worker import latency_stats, per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "long", "identity", "cli")

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("retained_blocks", "blocks", "lower"),
]
MIN_REPEATS = 3
MIN_TRACED_REPEATS = 2
SETUP_PROBES_PER_REPEAT = 6
# every run, with its last repeat, stays well inside three minutes
TIME_LIMIT_S = 170


class BenchError(Exception):
    pass


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def _setup_probe(workload: str, env: dict, speed: HostSpeed) -> float:
    """Seconds from spawning an interpreter until the package is imported."""
    module = "eraserlang.cli" if workload == "cli" else "eraserlang"
    speed.probe()
    t0 = clock()
    with subprocess.Popen([sys.executable, "-c",
                           f"import {module}; print('ready', flush=True)"],
                          stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          text=True) as proc:
        line = proc.stdout.readline()
        t1 = clock()
        proc.stdout.read()
    speed.probe()
    if proc.returncode != 0 or line != "ready\n":
        raise BenchError(f"importing {module} failed")
    return speed.seconds(t0, t1)


def _repeat(workload: str, seed: int, trace: bool, env: dict,
            deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
            "1" if trace else "0"]
    if trace:
        argv.append(str(HERE / "out" / f"spans-{workload}-{seed}.jsonl"))
    try:
        done = subprocess.run(argv, capture_output=True, text=True, env=env,
                              cwd=ROOT,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} repeat ran past the time limit")
    if done.returncode != 0:
        raise BenchError(f"{workload} worker exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = _env()
    speed = HostSpeed()
    start = time.perf_counter()
    hard_stop = start + TIME_LIMIT_S
    _setup_probe(workload, env, speed)  # writes the bytecode caches, not timed
    plain, traced, setups = [], [], []
    while True:
        if not trace:
            setups += [_setup_probe(workload, env, speed)
                       for _ in range(SETUP_PROBES_PER_REPEAT)]
        plain.append(_repeat(workload, seed, False, env, hard_stop))
        if trace:
            traced.append(_repeat(workload, seed, True, env, hard_stop))
        if (len(plain) >= (MIN_TRACED_REPEATS if trace else MIN_REPEATS)
                and time.perf_counter() - start >= seconds):
            break
    return {"plain": plain, "traced": traced, "setups": setups}


def _median(reports: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reports)


def op_stats(plain: list[dict]) -> dict:
    return latency_stats([statistics.median(times)
                          for times in zip(*(r["lat"] for r in plain))])


def end_to_end(m: dict) -> dict:
    plain = m["plain"]
    ops = op_stats(plain)
    return {
        "setup_s": statistics.median(m["setups"]),
        "wall_s": _median(plain, "wall_s"),
        "ops_per_s": statistics.median(r["ops"] / r["wall_s"] for r in plain),
        "op_p50_ms": ops["p50_ms"],
        "op_tail_ms": ops["tail_ms"],
        "peak_rss_mb": _median(plain, "peak_rss_mb"),
        "retained_blocks": _median(plain, "retained_blocks"),
    }


def per_layer(m: dict) -> dict:
    plain, traced = m["plain"], m["traced"]
    out = {}
    for name, _, _ in per_layer_metrics():
        if name in traced[0]["layers"]:
            out[name] = statistics.median(r["layers"][name] for r in traced)
    out["mem.import_blocks"] = _median(plain, "import_blocks")
    out["mem.workload_blocks"] = _median(plain, "workload_blocks")
    out["trace.overhead_s"] = (_median(traced, "wall_s")
                               - _median(plain, "wall_s"))
    return out


def report(workload: str, seed: int, m: dict, trace: bool) -> dict:
    reports = m["plain"] + m["traced"]
    attempted = sum(r["ops"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    declared = per_layer_metrics() if trace else END_TO_END
    values = per_layer(m) if trace else end_to_end(m)
    first = m["plain"][0]
    print(f"workload {workload}  seed {seed}  repeats {len(m['plain'])}"
          + (f" plain, {len(m['traced'])} traced" if trace else
             f"  setup probes {len(m['setups'])}")
          + f"  ops per repeat {first['ops']}")
    for name, unit, _ in declared:
        note = ""
        if name == "op_tail_ms":
            ops = op_stats(m["plain"])
            note = (f"  (p{ops['tail_pct']:.2f} of {ops['ops']} ops, "
                    f"{ops['tail_beyond']} beyond)")
        print(f"  {name:<40} {values[name]:>16.6f} {unit}{note}")
    print(f"  {'failed_ratio':<40} {failed / attempted:>16.6f} ratio"
          f"  ({failed} of {attempted})")
    for r in reports:
        for e in r["errors"]:
            print(f"  wrong answer: {e}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit, _ in declared}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eraserlang" / "__init__.py").is_file():
        print(f"no eraserlang sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    pin_to_one_cpu()
    for name in names:
        try:
            m = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(report(name, args.seed, m, bool(args.trace))),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
