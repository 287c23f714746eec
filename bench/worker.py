"""One repeat of one benchmark workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED TRACE [SPANS_FILE]

The worker builds the workload's inputs and their known answers from the
seed (``gen.py`` never imports eraserlang), then imports eraserlang and
runs every operation once, in order, in a closed loop: one caller, the
next operation only after the previous one returned.  Each answer is
checked after its clock stops.  Every time is given in seconds at the
reference host speed (``hostspeed.py``).  The last line of stdout is one
JSON object with the measurements.

With TRACE=1 each call into a public function of ``eraserlang.__all__``
is recorded as a span (name, layer, start, end, parent, operation id);
the spans stay in memory and are written to SPANS_FILE at exit, and the
per-layer figures are computed from them.

Only public names are used and ``clear_caches`` is never called: each
repeat is a fresh process, so it starts from the same cold state on every
commit, whether or not the package keeps module caches.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from typing import Callable

from hostspeed import HostSpeed, clock
from workloads import IDENTITY_CASES, WORKLOADS, Group, cli_inputs, equal

# Layers are the package's modules, split by public entry point.  Each
# entry names the public functions whose calls count for that layer.
LAYERS = {
    "omega.factorize": ("factorize",),
    "omega.viable": ("viable_prefix",),
    "omega.lasso": ("lasso_member",),
    "omega.enum": ("nth_factor", "factor_index"),
    "omega.identity": ("verify_intersection_identity",),
    "staged.grammar": ("vanishes_by_grammar",),
    "staged.vanishes": ("vanishes",),
    "eraser.staged_erase": ("staged_erase",),
    "eraser.staged_erase_up": ("staged_erase_up",),
    "coding.encode": ("encode",),
    "coding.decode": ("decode",),
    "words.parse": ("parse_staged", "parse_coded", "parse_up"),
}
PER_SYMBOL = ("omega.factorize", "eraser.staged_erase",
              "eraser.staged_erase_up", "coding.encode", "coding.decode")
GROWTH = ("omega.factorize", "omega.viable", "staged.grammar")
CLI_PROBES = 5


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count", "higher"),
                (f"{layer}.busy_s", "s", "lower"),
                (f"{layer}.p50_us", "us", "lower"),
                (f"{layer}.share", "ratio", "lower")]
        if layer in PER_SYMBOL:
            out.append((f"{layer}.us_per_symbol", "us/symbol", "lower"))
        if layer in GROWTH:
            out.append((f"{layer}.growth_exp", "exponent", "lower"))
    for p, n in IDENTITY_CASES:
        out.append((f"omega.identity.p{p}_n{n}.busy_s", "s", "lower"))
    for p in sorted({p for p, _ in IDENTITY_CASES}):
        out.append((f"omega.identity.p{p}.growth_ratio", "ratio", "lower"))
    out += [("cli.startup_ms", "ms", "lower"),
            ("cli.import_ms", "ms", "lower"),
            ("cli.call_ms", "ms", "lower"),
            ("mem.import_blocks", "blocks", "lower"),
            ("mem.workload_blocks", "blocks", "lower"),
            ("trace.overhead_s", "s", "lower")]
    return out


# ------------------------------------------------------------------ tracing

class Tracer:
    """Spans kept in flat arrays until the worker exits."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.size = array("l")
        self.current = -1
        self.op_id = -1

    def open(self, name: str, size: int) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parent.append(self.current)
        self.op.append(self.op_id)
        self.size.append(size)
        self.end.append(0.0)
        self.current = sid
        self.start.append(clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = clock()
        self.current = self.parent[sid]

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args):
            sid = self.open(name, _size(args))
            try:
                return fn(*args)
            finally:
                self.close(sid)
        return traced

    def durations(self, name: str,
                  speed: HostSpeed) -> tuple[list[float], list[int]]:
        times, sizes = [], []
        for i, n in enumerate(self.names):
            if n == name:
                times.append(speed.seconds(self.start[i], self.end[i]))
                sizes.append(self.size[i])
        return times, sizes

    def write(self, path: Path) -> None:
        base = self.start[0] if self.names else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            fh.write('["id","name","layer","start_s","end_s","parent","op"]\n')
            for i, name in enumerate(self.names):
                layer = name.split(".")[0]
                fh.write(f'[{i},"{name}","{layer}",'
                         f"{self.start[i] - base:.9f},{self.end[i] - base:.9f},"
                         f"{self.parent[i]},{self.op[i]}]\n")


def _size(args) -> int:
    """Input length of a call: word length, prefix plus period, or n."""
    a = args[-1] if isinstance(args[0], int) else args[0]
    if isinstance(a, int):
        return a
    if hasattr(a, "period"):
        return len(a.prefix) + len(a.period)
    return len(a)


class Calls:
    """The public functions the workloads call, plain or traced."""

    def __init__(self, lib, tracer: Tracer | None):
        for layer, names in LAYERS.items():
            for fname in names:
                fn = getattr(lib, fname)
                setattr(self, fname,
                        fn if tracer is None else tracer.wrap(layer, fn))


# ------------------------------------------------------------- measurement

def run_groups(groups: list[Group], tracer: Tracer | None,
               speed: HostSpeed) -> dict:
    """Run and check every operation; the host speed is probed before each
    one and after the last."""
    starts, ends = array("d"), array("d")
    failed = 0
    errors: list[str] = []
    for g in groups:
        run, check = g.run, g.check
        for arg, exp in zip(g.args, g.expected):
            speed.probe()
            if tracer is not None:
                tracer.op_id = len(starts)
                sid = tracer.open("bench.op." + g.name, 0)
            t0 = clock()
            try:
                out = run(arg)
            except Exception as exc:  # a raising operation is a failed one
                out = exc
            t1 = clock()
            if tracer is not None:
                tracer.close(sid)
            starts.append(t0)
            ends.append(t1)
            if isinstance(out, Exception) or not check(out, exp):
                failed += 1
                if len(errors) < 5:
                    errors.append(f"{g.name}: {arg!r:.100} gave {out!r:.100}, "
                                  f"expected {exp!r:.100}")
    speed.probe()
    lat = array("d", map(speed.seconds, starts, ends))
    return {"lat": lat, "failed": failed, "errors": errors}


def latency_stats(lat) -> dict:
    """Median and the highest percentile with at least 10 samples beyond
    it (the largest sample when there are at most 10)."""
    ordered = sorted(lat)
    n = len(ordered)
    rank = n - 11 if n > 10 else n - 1
    return {"ops": n, "wall_s": math.fsum(ordered),
            "p50_ms": statistics.median(ordered) * 1e3,
            "tail_ms": ordered[rank] * 1e3,
            "tail_pct": 100.0 * (rank + 1) / n, "tail_beyond": n - rank - 1}


def fit(xs, ys) -> float:
    """Least-squares slope of ys against xs; 0 without two distinct xs."""
    if len(set(xs)) < 2:
        return 0.0
    mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    num = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return num / math.fsum((x - mx) ** 2 for x in xs)


def growth_exp(sizes, times) -> float:
    """Log-log slope of per-call time against input length."""
    pts = [(math.log(n), math.log(t)) for n, t in zip(sizes, times)
           if n > 0 and t > 0]
    return fit([x for x, _ in pts], [y for _, y in pts])


def layer_figures(tracer: Tracer, speed: HostSpeed, wall: float) -> dict:
    out: dict[str, float] = {}
    for layer in LAYERS:
        times, sizes = tracer.durations(layer, speed)
        busy = math.fsum(times)
        out[f"{layer}.calls"] = len(times)
        out[f"{layer}.busy_s"] = busy
        out[f"{layer}.p50_us"] = statistics.median(times) * 1e6 if times else 0.0
        out[f"{layer}.share"] = busy / wall
        if layer in PER_SYMBOL:
            total = sum(sizes)
            out[f"{layer}.us_per_symbol"] = busy * 1e6 / total if total else 0.0
        if layer in GROWTH:
            out[f"{layer}.growth_exp"] = growth_exp(sizes, times)
    times, _ = tracer.durations("omega.identity", speed)
    per_case = dict(zip(IDENTITY_CASES, times))
    for p, n in IDENTITY_CASES:
        out[f"omega.identity.p{p}_n{n}.busy_s"] = per_case.get((p, n), 0.0)
    for p in sorted({p for p, _ in IDENTITY_CASES}):
        pts = [(n, t) for (q, n), t in per_case.items() if q == p and t > 0]
        # exp of the slope of log time against n: the ratio per unit of n
        ratio = math.exp(fit([n for n, _ in pts],
                             [math.log(t) for _, t in pts])) if pts else 0.0
        out[f"omega.identity.p{p}.growth_ratio"] = ratio
    return out


def blocks() -> int:
    gc.collect()
    return sys.getallocatedblocks()


def library_workload(name: str, seed: int, tracer: Tracer | None,
                     speed: HostSpeed) -> dict:
    inputs, groups_of = WORKLOADS[name]
    raw = inputs(seed)
    b0 = blocks()
    import eraserlang as lib
    b1 = blocks()
    groups = groups_of(raw, lib, Calls(lib, tracer))
    del raw
    b2 = blocks()
    with speed.ticking():
        res = run_groups(groups, tracer, speed)
    b3 = blocks()
    res.update(import_blocks=b1 - b0, workload_blocks=b3 - b2,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF)
               .ru_maxrss / 1024)
    return res


# ---------------------------------------------------------------------- cli

def cli_workload(seed: int, tracer: Tracer | None, speed: HostSpeed) -> dict:
    cases = cli_inputs(seed)
    base = [sys.executable, "-m", "eraserlang.cli"]

    def call(case):
        done = subprocess.run(base + case.argv, capture_output=True,
                              text=True, timeout=60)
        return done.returncode, done.stdout, done.stderr

    group = Group("cli", call, cases, [(c.code, c.out, c.err) for c in cases],
                  equal)
    # no ticks here: a probe would take the CPU from the child
    res = run_groups([group], tracer, speed)
    res["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_CHILDREN)
                          .ru_maxrss / 1024)
    if tracer is not None:
        res["startup"] = [_spawn_time([sys.executable, "-c", "pass"], speed)
                          for _ in range(CLI_PROBES)]
        res["import"] = [_import_time(speed) for _ in range(CLI_PROBES)]

    # the same commands once more in this process, for the blocks that a
    # long-lived caller of the CLI entry point would keep
    b0 = blocks()
    from eraserlang import cli
    b1 = blocks()
    calls = None
    if tracer is not None:
        import eraserlang as lib
        calls = Calls(lib, tracer)
    sink = io.StringIO()
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.op_id = i
            for kind, text in case.parse:
                _parse(calls, kind, text)
            speed.probe()
            sid = tracer.open("cli.main", len(case.argv))
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            cli.main(case.argv)
        if tracer is not None:
            tracer.close(sid)
            speed.probe()
        sink.seek(0)
        sink.truncate()
    del sink, calls
    b3 = blocks()
    res.update(import_blocks=b1 - b0, workload_blocks=b3 - b1)
    return res


def _parse(calls: Calls, kind: str, text: str):
    if kind == "staged":
        return calls.parse_staged(text)
    if kind == "coded":
        return calls.parse_coded(text)
    return calls.parse_up(text, kind.split("-")[1])


def _spawn_time(argv, speed: HostSpeed) -> float:
    speed.probe()
    t0 = clock()
    subprocess.run(argv, check=True, timeout=60)
    t1 = clock()
    speed.probe()
    return speed.seconds(t0, t1)


def _import_time(speed: HostSpeed) -> float:
    """Seconds a fresh interpreter spends in ``import eraserlang``."""
    code = ("import time; t = time.perf_counter(); import eraserlang; "
            "print(time.perf_counter(), time.perf_counter() - t)")
    speed.probe()
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True, timeout=60)
    speed.probe()
    # the child's perf_counter is the same system-wide clock as ours
    end, took = map(float, done.stdout.split())
    return speed.seconds(end - took, end)


# --------------------------------------------------------------------- main

def make_report(name: str, res: dict, tracer: Tracer | None,
                speed: HostSpeed) -> dict:
    stats = latency_stats(res["lat"])
    report = {**stats, "lat": list(res["lat"]),
              "failed": res["failed"], "errors": res["errors"],
              "peak_rss_mb": res["peak_rss_mb"],
              "retained_blocks": res["import_blocks"] + res["workload_blocks"],
              "import_blocks": res["import_blocks"],
              "workload_blocks": res["workload_blocks"]}
    if tracer is not None:
        layers = layer_figures(tracer, speed, stats["wall_s"])
        cli_main, _ = tracer.durations("cli.main", speed)
        layers.update({"cli.startup_ms": 0.0, "cli.import_ms": 0.0,
                       "cli.call_ms": 0.0})
        if cli_main:
            layers["cli.startup_ms"] = statistics.median(res["startup"]) * 1e3
            layers["cli.import_ms"] = statistics.median(res["import"]) * 1e3
            layers["cli.call_ms"] = statistics.median(cli_main) * 1e3
        report["layers"] = layers
    return report


def main(argv: list[str]) -> int:
    name, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    tracer = Tracer() if trace else None
    speed = HostSpeed()
    if name == "cli":
        res = cli_workload(seed, tracer, speed)
    else:
        res = library_workload(name, seed, tracer, speed)
    report = make_report(name, res, tracer, speed)
    if tracer is not None and len(argv) > 3:
        tracer.write(Path(argv[3]))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
