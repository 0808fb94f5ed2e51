"""c4ramsey benchmark: one command, four closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/c4ramsey.  One client, one
process, one thread: each operation starts when the previous one has
returned.  A run repeats passes over the workload's fixed inputs (made from
--seed) for --seconds, with at least two passes, and checks every output
against the oracles in workloads.py and oracles.py.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, measured
with no tracing.  --trace 1 alternates untraced and traced passes and
reports the per-layer metrics from the traced ones, plus the tracing
overhead.  The last line of standard output is one JSON object; the lines
before it give each metric with its unit, the environment and the exact
counts.  The exit code is 1 when a check fails or an operation fails, and 2
when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
COUNTS_DIR = HERE / ".counts"

MIN_PASSES = 2
SETUP_REPEATS = 15
SETUP_KERNEL_REF_S = 0.009
SAMPLE_EVERY_S = 0.1
KERNEL_REF_S = 0.0025
LOCAL_WINDOW_S = 1.0
LOCAL_SAMPLES = 10

# Timed in a fresh interpreter each time: package import, then
# seed_registry(), then the set-up kernel (argv[2]) that set-up is scaled by.
SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import c4ramsey
t1 = time.perf_counter()
c4ramsey.seed_registry()
t2 = time.perf_counter()
import re
def kernel():
    re.purge()
    exec(compile(sys.argv[2], "<kernel>", "exec"), {"__name__": "kernel"})
kernel()  # imports what the kernel uses, should the package not have
took = []
for _ in range(3):
    start = time.perf_counter()
    kernel()
    took.append(time.perf_counter() - start)
print(json.dumps([t1 - t0, t2 - t1, sum(took) / len(took)]))
"""

# Import-like work for the set-up kernel: compiling and running a module
# body of dataclasses, methods, regular expressions and constant tables.
SETUP_KERNEL = "from dataclasses import dataclass\nimport re\n" + "".join(
    f"""
@dataclass(frozen=True)
class C{i}:
    a: int
    b: str = "x{i}"
    c: tuple = ()

    def f(self, x):
        return [self.a * x + j for j in range({i} + 3) if j % 2]


PAT{i} = re.compile(r"^(K|C|S|B)(\\d+)(\\+\\d+K1)?_{i}$")
TABLE{i} = {{"k{i}": ({i}, "v"), "j": [1, 2, 3], "s": frozenset("abc")}}
"""
    for i in range(6)
)

# Per-layer self-time groups: metric -> traced function names.
SELF_GROUPS = {
    "targets.parse.self_s": ("targets.parse_target", "targets.parse_targets", "targets.parse_target_sequence"),
    "graphs.contains_target.self_s": ("graphs.contains_target",),
    "graphs.is_good_coloring.self_s": ("graphs.is_good_coloring",),
    "graphs.find_target_copy.self_s": ("graphs.find_target_copy",),
    "graphs.graph6.self_s": ("graphs.graph6_encode", "graphs.graph6_decode"),
    "graphs.coloring_text.self_s": ("graphs.coloring_to_text", "graphs.coloring_from_text"),
    "witness.verify.self_s": ("witness.verify_lower_bound",),
    "witness.extend.self_s": ("witness.extend_with_disjoint_clique",),
    "derive.replay.self_s": ("derive.replay",),
    "derive.tree_codec.self_s": ("derive.DerivationTree.to_dict", "derive.DerivationTree.from_dict"),
    "registry.lookup.self_s": ("registry.Registry.best_upper", "registry.Registry.best_lower", "registry.Registry.exact"),
    "cli.run.self_s": ("cli.run",),
    "partition.self_s": ("search.partition_check",),
}
CALL_GROUPS = {
    "partition.calls": ("search.partition_check",),
    "derive.calls": ("derive.derive",),
    "registry.lookups": SELF_GROUPS["registry.lookup.self_s"],
}


def _kernel() -> int:
    """Fixed pure-Python work of the program's kinds: bitset arithmetic,
    list indexing, string formatting and parsing, small allocations."""
    rows = list(range(1, 65))
    acc = 0
    for i in range(1200):
        a = rows[i & 63]
        b = rows[(i * 7) & 63]
        acc += (a & b).bit_count() + (a | i) % 7
        rows[i & 63] = (a * 33 + b) & 0xFFFFFFFF
        line = f"{i} {a & 255} {b % 3}"
        acc += int(line.split()[1]) + len({i: line, a: b})
    return acc


class Speed:
    """How fast the interpreter ran around each moment of the run.

    The shared 2-core machine this benchmark was built on changes speed as
    other tenants come and go: the kernel below took 1.3 to 3.1 ms from one
    second to the next.  Without scaling, ten runs of a workload spread
    (quartile distance over median) by up to 0.16 in wall_s and 0.18 in
    op_p90_ms, most of the 0.2-0.25 bounds.  So while a run
    measures, a timer interrupts it every SAMPLE_EVERY_S and times a fixed
    kernel.  A time measured over [t0, t1] is scaled by KERNEL_REF_S over
    the mean kernel time near that interval, so that it reads as if the
    kernel had taken KERNEL_REF_S.  The mean, not the median, because an
    interval's time integrates the speed over it.  The kernel is benchmark
    code, so no change to the program moves it.  clock() is perf_counter
    minus the time spent in the kernel, so samples add nothing to the
    operations' times.
    """

    def __init__(self):
        self.at: list[float] = []  # clock() when each sample started
        self.took: list[float] = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        at = self.clock()
        start = time.perf_counter()
        _kernel()
        took = time.perf_counter() - start
        self.at.append(at)
        self.took.append(took)
        self.spent += time.perf_counter() - start
        if signum is not None:  # re-armed one-shot, so samples never overlap
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def clock(self) -> float:
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no sample ran in between
                return now - spent

    def start(self) -> None:
        _kernel()  # warm, so the first sample is not a cold start
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def scale(self, t0: float = float("-inf"), t1: float = float("inf")) -> float:
        """KERNEL_REF_S over the mean kernel time within LOCAL_WINDOW_S of
        [t0, t1], the window doubled until it holds LOCAL_SAMPLES samples."""
        w = LOCAL_WINDOW_S
        while True:
            lo = bisect.bisect_left(self.at, t0 - w)
            hi = bisect.bisect_right(self.at, t1 + w)
            if hi - lo >= LOCAL_SAMPLES or hi - lo == len(self.at):
                return KERNEL_REF_S / statistics.fmean(self.took[lo:hi])
            w *= 2


@dataclass
class Pass:
    """What a pass leaves once checked; results are dropped so that memory
    does not grow with the number of passes."""

    traced: bool
    starts: list[float]
    raw: list[float]  # op seconds as measured
    counts: dict
    spans: dict | None
    by_key: dict  # the ladder's (spec, n) -> (start, seconds), then scaled seconds
    times: list[float] | None = None  # op seconds, scaled
    scale: float = 1.0  # for the pass as a whole

    @property
    def wall(self) -> float:
        return sum(self.times)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or all to run each in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


@dataclass
class Setup:
    seconds: float  # import + seed_registry, scaled
    registry: float  # seed_registry, scaled
    raw: float  # import + seed_registry, as measured


def measure_setup(repeats: int) -> Setup:
    """Medians over fresh interpreters, each scaled by the set-up kernel.

    The machine this was built on switched between two speeds within
    seconds, its set-up time between about 16 and 25 ms, and medians of 15
    raw set-ups moved by 0.75-1.5 times their median within a minute.  Each
    interpreter times SETUP_KERNEL right after its set-up and scales it by
    SETUP_KERNEL_REF_S over that time; so scaled, the same medians moved by
    0.96-1.07.  Import work tracks this kernel (compiling and running module
    bodies) much more closely than the pure-arithmetic one Speed samples.
    One untimed start first, so that every timed start finds the bytecode
    cache written.
    """
    cmd = [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), SETUP_KERNEL]
    samples = []
    for i in range(repeats + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        if i:
            samples.append(json.loads(out.stdout))
    return Setup(
        statistics.median((a + b) * SETUP_KERNEL_REF_S / k for a, b, k in samples),
        statistics.median(b * SETUP_KERNEL_REF_S / k for _, b, k in samples),
        statistics.median(a + b for a, b, _ in samples),
    )


def code_digest() -> str:
    h = hashlib.sha256()
    files = sorted((SRC / "c4ramsey").rglob("*.py")) + sorted((SRC / "c4ramsey").rglob("*.txt"))
    for path in files + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_recorded_counts(tag: str, counts: dict, problems: list[str]) -> None:
    """Compare with the counts an earlier run of the same code and seed
    wrote, or record them.  One file per code digest, so that runs of two
    commits in turn each find their own."""
    path = COUNTS_DIR / f"{tag}-{code_digest()[:16]}.json"
    counts = json.loads(json.dumps(counts))
    if path.is_file():
        if json.loads(path.read_text()) != counts:
            problems.append(f"counts differ from an earlier run of the same code and seed ({path.name})")
        return
    COUNTS_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    os.replace(tmp, path)


def end_to_end(passes: list[Pass], setup: Setup) -> tuple[dict, dict]:
    times = [t for p in passes for t in p.times]
    busy = sum(times)
    values = {
        "wall_s": statistics.median(p.wall for p in passes),
        "ops_per_s": len(times) / busy,
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
        "setup_s": setup.seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "wall_s": f"median of {len(passes)} passes; raw {statistics.median(sum(p.raw) for p in passes):.6g}",
        "ops_per_s": f"{len(times)} ops over {busy:.3f} s busy",
        "op_p50_ms": f"{len(times)} samples",
        "op_p90_ms": f"{len(times)} samples, {len(times) // 10} beyond",
        "setup_s": f"median over {SETUP_REPEATS} fresh interpreters; raw {setup.raw:.6g}",
    }
    return values, notes


def per_layer(workloads, name: str, passes: list[Pass], setup: Setup) -> tuple[dict, dict]:
    import tracing

    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    k = len(traced)
    spans: dict[str, list] = {}
    for p in traced:
        for fn, (calls, total, self_s) in p.spans.items():
            row = spans.setdefault(fn, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total * p.scale
            row[2] += self_s * p.scale

    def total(fn: str, col: int) -> float:
        return spans.get(fn, (0, 0.0, 0.0))[col] / k

    counts = traced[0].counts
    values = {}
    for spec, n in workloads.ladder_instances():
        inst = workloads.instance_name(spec, n)
        status_nodes = counts.get(inst) if name == "search-ladder" else None
        values[f"search.{inst}.nodes"] = status_nodes[1] if status_nodes else 0
        walls = [p.by_key[(spec, n)] for p in plain if (spec, n) in p.by_key]
        values[f"search.{inst}.wall_s"] = statistics.median(walls) if walls else 0.0
    calls, decided, nodes = counts.get("search", (0, 0, 0))
    search_time = total("search.search_coloring", 1)
    values["search.nodes_per_s"] = nodes / search_time if search_time else 0.0
    values["search.decided_ratio"] = decided / calls if calls else 0.0
    values["partition.nodes"] = counts["nodes"] if name == "partition-batch" else 0
    values["derive.cannot_derive"] = counts["cannot_derive"] if name == "derive-cli" else 0
    for metric, fns in CALL_GROUPS.items():
        values[metric] = sum(spans.get(fn, (0,))[0] for fn in fns) / k
    for metric, fns in SELF_GROUPS.items():
        values[metric] = sum(total(fn, 2) for fn in fns)
    for module in tracing.MODULES:
        values[f"{module}.self_s"] = sum(row[2] for fn, row in spans.items() if fn.startswith(module + ".")) / k
    values["registry.load_s"] = setup.registry
    values["trace.overhead_s"] = statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in plain)
    values["trace.spans"] = sum(row[0] for row in spans.values()) / k
    notes = {
        "trace.overhead_s": f"median traced pass minus median untraced pass, {k} + {len(plain)} passes",
        "registry.load_s": f"median over {SETUP_REPEATS} fresh interpreters, scaled like setup_s",
    }
    return values, notes


def measure(args, workloads, tracing, speed: Speed, report) -> list[Pass]:
    """Passes over the workload's inputs for args.seconds, at least MIN_PASSES.

    With tracing on, passes alternate untraced and traced, starting untraced.
    """
    make, run, check = workloads.WORKLOADS[args.workload]
    inputs = make(random.Random(args.seed))
    tracer = tracing.Tracer(speed.clock)
    passes: list[Pass] = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < args.seconds:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            ops = list(run(inputs, speed.clock))
        finally:
            tracer.uninstall()
        spans = tracer.aggregate() if traced else None
        by_key = workloads.ladder_instance_times(ops) if args.workload == "search-ladder" else {}
        counts = check(inputs, ops, report)
        passes.append(Pass(traced, [op.start for op in ops], [op.seconds for op in ops], counts, spans, by_key))
    return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "c4ramsey" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a checkout holding src/c4ramsey and BENCHMARK.json (looked in {ROOT})", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload == "all":
        # each in a fresh interpreter, so that one's memory and caches do not
        # leak into the next; the exit code is the worst of theirs
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        return max(
            subprocess.run([sys.executable, __file__, "--workload", name, *rest], timeout=900).returncode
            for name in workloads.WORKLOADS
        )
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    report = workloads.Report()
    setup = measure_setup(SETUP_REPEATS)  # before the sampler starts
    speed = Speed()
    speed.start()
    try:
        passes = measure(args, workloads, tracing, speed, report)
    finally:
        speed.stop()
    for p in passes:
        p.times = [t * speed.scale(s, s + t) for s, t in zip(p.starts, p.raw)]
        p.scale = speed.scale(p.starts[0], p.starts[-1] + p.raw[-1])
        p.by_key = {k: t * speed.scale(s, s + t) for k, (s, t) in p.by_key.items()}

    first = json.dumps(passes[0].counts, sort_keys=True)
    if any(json.dumps(p.counts, sort_keys=True) != first for p in passes):
        report.problem("exact counts differ between passes of one run")
    check_recorded_counts(f"{args.workload}-{args.seed}", passes[0].counts, report.problems)

    if args.trace:
        values, notes = per_layer(workloads, args.workload, passes, setup)
    else:
        values, notes = end_to_end(passes, setup)
    if set(values) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared))} disagree with {SPEC.name}")

    attempted = sum(len(p.raw) for p in passes)
    failed = len(report.failures)
    load_end = os.getloadavg()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} passes {len(passes)} ops {attempted}")
    print(
        f"env python {platform.python_version()} cpu_count {os.cpu_count()} "
        f"loadavg_start {load_start[0]:.2f} loadavg_end {load_end[0]:.2f} "
        f"speed_scale {speed.scale():.4f} (kernel mean {statistics.fmean(speed.took) * 1e3:.3f} ms "
        f"over {len(speed.took)} samples, reference {KERNEL_REF_S * 1e3:g} ms)"
    )
    for metric, unit in declared.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"metric {metric} {values[metric]:.6g} {unit}{note}")
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print("counts " + json.dumps(passes[0].counts, sort_keys=True))
    for msg in report.failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    for msg in report.problems[:20]:
        print(f"WRONG {msg}", file=sys.stderr)
    correct = not report.problems
    metrics = {m: {"value": values[m], "unit": u} for m, u in declared.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
