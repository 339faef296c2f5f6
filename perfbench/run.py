"""Benchmark of the lfunlab CLI: end-to-end metrics, or per-layer metrics with --trace 1.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-many --seed 1 --seconds 25 --trace 0

The checked-out `src/` is imported directly (the package need not be
installed).  One closed-loop client issues the workload's CLI commands in
sequence through `lfunlab.cli.run` with `--jobs 1`; each command starts with
cold in-process memos, as a user's invocation does.  The command list is
repeated in passes until --seconds is used up.  The first pass warms up
(first large allocations, lazy imports) and is checked but not timed; at
least three timed passes follow, and timings are medians over them.

End-to-end times are host-normalized.  The shared host's speed drifts by
tens of percent over minutes, more than the changes the benchmark must
show.  A fixed kernel that never touches lfunlab (an interpreter loop and a
numpy exp, the two kinds of work the workloads do) is timed after every
set-up probe and after every command, once per started CAL_EVERY_S of the
command.  The host flips between a fast and a slow state on scales of 0.1 s
and more, so the kernel time of a stretch of the run is the mean of the
samples taken in it (trimmed by a tenth at each end), which follows the
share of time spent in each state.  The workloads feel a host slow-down
about half as much as the kernel does, so a pass's time is scaled by
(CAL_REF_S / kernel time of the pass) ** HOST_ELASTICITY, where the pass's
samples are the one just before it and those after each of its commands.
Set-up, a fresh interpreter importing numpy and lfunlab, slows as much as
the kernel does, so set-up times are scaled by (CAL_REF_S / kernel time of
the whole run) ** SETUP_ELASTICITY.  The raw times and the kernel times are
printed in the table above the result line.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json.  --trace 1
spends half of --seconds on untraced passes (warm-up included), then wraps
every public function of every lfunlab module (see tracer.py), spends the
other half on traced passes and prints the per-layer metrics, medians over
the traced passes.  A function that no longer exists is reported as absent
(null), not as zero.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Without `src/lfunlab` the benchmark exits 1
and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean, median, quantiles

# Single-threaded BLAS on both sides of every comparison.  Set before lfunlab
# imports numpy; the set-up probes inherit it.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import workloads
from workloads import Sweep, Verify

SETUP_SAMPLES = 11
MIN_PASSES = 3
CAL_REF_S = 0.025  # the calibration kernel's time on the reference host
CAL_EVERY_S = 0.5  # one kernel sample per started CAL_EVERY_S of a command
# d log(workload time) / d log(kernel time) as the host's speed changes.
# Measured over passes: 0.33 (verify-identities), 0.68 (cache-reuse) and
# about 0.2 (large-modulus); over runs: 0.4 to 0.5.
HOST_ELASTICITY = 0.5
# The same for set-up: between two ten-seed sets made at different host
# speeds, raw set-up medians moved by up to 31%, scaled ones by at most 4%.
SETUP_ELASTICITY = 1.0
TRACE_DIR = ROOT / ".bench_out"

# Set-up as a user pays it: a fresh interpreter imports lfunlab and the
# inputs are generated.  argv: src dir, perfbench dir, workload, seed.
_SETUP_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import lfunlab, workloads; "
                "workloads.generate(sys.argv[3], int(sys.argv[4]))")


def import_lfunlab():
    """Import the checked-out package, never an installed copy."""
    if not (SRC / "lfunlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lfunlab package under {SRC}")
    import lfunlab
    import lfunlab.cli

    if Path(lfunlab.__file__).resolve().parent != SRC / "lfunlab":
        raise SystemExit(f"perfbench: imported lfunlab from {lfunlab.__file__}, not from {SRC}")
    return lfunlab


def calibration_s() -> float:
    """Seconds taken by a fixed kernel that does not depend on lfunlab."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    # Arrays below glibc's 128 KiB mmap threshold, so the kernel leaves the
    # allocator state, and with it the program's memory use, as it was.
    phase = (np.arange(4096) % 997) * (2 * np.pi / 997)
    for _ in range(100):
        np.exp(1j * phase).sum()
    return time.perf_counter() - start


def kernel_s(cal: list[float]) -> float:
    """Mean of calibration-kernel samples, trimmed by a tenth at each end."""
    ordered = sorted(cal)
    trim = len(ordered) // 10
    return fmean(ordered[trim:len(ordered) - trim])


def host_scale(cal: list[float], elasticity: float = HOST_ELASTICITY) -> float:
    """Host-normalized seconds per raw second, from the kernel samples of a stretch."""
    return (CAL_REF_S / kernel_s(cal)) ** elasticity


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw seconds of SETUP_SAMPLES fresh set-ups, and the kernel samples between them."""
    samples = []
    cal = [calibration_s()]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(SRC), str(HERE), workload, str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
        cal.append(calibration_s())
    return samples, cal


def _snapshot(directory: Path) -> dict[str, tuple[int, int]]:
    if not directory.is_dir():
        return {}
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in directory.iterdir()}


def _written(before: dict, after: dict, prefix: str) -> int:
    return sum(size for name, (size, mtime) in after.items()
               if name.startswith(prefix) and before.get(name) != (size, mtime))


@dataclass
class PassResult:
    wall_s: float = 0.0
    scale: float = 1.0  # host-normalized seconds per raw second during the pass
    peak_rss_mb: float = 0.0  # process high-water mark when the pass ended
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)

    def record(self, attempted: int, failed: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.ops += attempted - failed
        self.problems += problems


class Runner:
    """Runs CLI commands in-process and checks their outputs."""

    def __init__(self, lfunlab, commands, workdir: Path) -> None:
        self.cli = lfunlab.cli
        # Held before any tracing wraps them, so clearing is never traced.
        self.get_table = lfunlab.chars.get_table
        self.clear_memo = lfunlab.meanval.clear_memo
        self.commands = commands
        self.workdir = workdir
        self.cal: list[float] = []  # calibration-kernel seconds, taken after each command
        self.tracer = None
        self.reference = {id(c): workloads.load_reference(c.reference, c.poly_seed)
                          for c in commands if isinstance(c, Sweep)}

    def _cold_start(self) -> None:
        if self.tracer is not None:
            info = self.get_table.cache_info()
            self.tracer.count("chars.get_table.hits", info.hits)
            self.tracer.count("chars.get_table.misses", info.misses)
        self.get_table.cache_clear()
        self.clear_memo()
        gc.collect()

    def command(self, argv: list[str]) -> tuple[int | None, float, str]:
        """Exit code (None on an exception), seconds, and captured output."""
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = self.cli.run(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = None
            out.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        self._cold_start()  # the next command starts cold
        for _ in range(1 + int(elapsed / CAL_EVERY_S)):
            self.cal.append(calibration_s())
        return code, elapsed, out.getvalue()

    def _sweep(self, cmd: Sweep, res: PassResult, name: str,
               cache_dir: Path | None = None) -> tuple[str | None, float]:
        """Run one sweep, check its CSV, and return the CSV text and the seconds it took."""
        out = self.workdir / f"{name}.csv"
        out.unlink(missing_ok=True)
        before = _snapshot(cache_dir) if cache_dir else {}
        code, elapsed, log = self.command(cmd.argv(str(out), str(cache_dir) if cache_dir else None))
        res.wall_s += elapsed
        if self.tracer is not None and cache_dir is not None:
            after = _snapshot(cache_dir)
            self.tracer.count("cache.put_table.bytes", _written(before, after, "table_"))
            self.tracer.count("cache.put_lvec.bytes", _written(before, after, "lvec_"))
        n = len(cmd.expected())
        if code != 0 or not out.is_file():
            res.record(n, n, [f"{cmd.target} sweep exited {code}: {log.strip()[-400:]}"])
            return None, elapsed
        text = out.read_text()
        res.record(*workloads.check_sweep(cmd, text, self.reference[id(cmd)]))
        return text, elapsed

    def run_pass(self) -> PassResult:
        res = PassResult()
        for i, cmd in enumerate(self.commands):
            if isinstance(cmd, Verify):
                code, elapsed, log = self.command(cmd.argv())
                res.wall_s += elapsed
                res.record(1, int(code != 0), [] if code == 0 else
                           [f"verify {cmd.target} exited {code}: {log.strip()[-400:]}"])
            elif cmd.cached:
                cache_dir = self.workdir / "cache"
                shutil.rmtree(cache_dir, ignore_errors=True)
                # Write back the previous pass's files first, as a user's run
                # would find them, so their writeback does not stall this pass.
                os.sync()
                cold, res.extra["cold_pass_s"] = self._sweep(cmd, res, "cold_pass", cache_dir)
                res.extra["disk_mb"] = sum(s for s, _ in _snapshot(cache_dir).values()) / 2**20
                warm, res.extra["warm_pass_s"] = self._sweep(cmd, res, "warm_pass", cache_dir)
                if cold is not None and warm is not None and cold != warm:
                    n = len(cmd.expected())
                    res.record(n, n, ["warm-pass CSV is not byte-identical to the cold pass"])
            else:
                self._sweep(cmd, res, f"{i}_{cmd.target}")
        return res


def run_passes(runner: Runner, budget_s: float, warmup: bool,
               trace_metrics: list | None = None) -> tuple[list[PassResult], list[PassResult]]:
    """Repeat passes while the next one is expected to fit in the budget.

    Returns the warm-up pass (none without warmup) and the timed passes.
    """
    results: list[PassResult] = []
    start = time.perf_counter()
    runner.cal.append(calibration_s())
    while True:
        if runner.tracer is not None:
            runner.tracer.reset()
        first_cal = len(runner.cal) - 1  # the sample just before the pass
        res = runner.run_pass()
        res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        res.scale = host_scale(runner.cal[first_cal:])
        results.append(res)
        if trace_metrics is not None:
            m = runner.tracer.pass_metrics()
            m["trace.wall_s"] = res.wall_s
            m["host.calibration_s"] = kernel_s(runner.cal[first_cal:])
            m["trace.unattributed_s"] = res.wall_s - m["trace.attributed_s"]
            trace_metrics.append(m)
        timed = results[warmup:]
        elapsed = time.perf_counter() - start
        if len(timed) >= MIN_PASSES and elapsed + median(r.wall_s for r in timed) > budget_s:
            return results[:warmup], timed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = quantiles(values, n=4)
    return q1, median(values), q3


def machine_facts(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):  # the build-info layout differs between numpy versions
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def print_summary(args, commands, units: dict, series: dict, peak_rss_mb: float,
                  attempted: int, failed: int, problems: list[str]) -> None:
    import numpy as np

    print(f"workload {args.workload}, seed {args.seed}; machine {json.dumps(machine_facts(np))}")
    for cmd in commands:
        shown = ",".join(map(str, cmd.moduli)) if isinstance(cmd, Sweep) else " ".join(cmd.flags)
        print(f"  {'sweep' if isinstance(cmd, Sweep) else 'verify'} {cmd.target}: {shown}")
    print(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>8}{'n':>6}  unit")
    for name, values in series.items():
        if values:
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{name:<16}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{spread:>8.3f}"
                  f"{len(values):>6}  {units[name]}")
    print(f"{'peak_rss_mb':<16}{peak_rss_mb:>12.6g}{'':>32}{1:>6}  MB (set-up and first pass)")
    print(f"{'failed_frac':<16}{failed / attempted:>12.6g}{'':>32}{attempted:>6}  ratio "
          f"({failed} failed of {attempted} attempted)")
    for p in problems:
        print(f"FAILED: {p}")


def layer_metrics(trace_metrics: list[dict], traced: list[PassResult], series: dict) -> dict:
    """Medians over traced passes, plus the trace overhead and the cache-pass figures."""
    layer = {name: median(m[name] for m in trace_metrics) for name in trace_metrics[0]}
    # Host-normalized, as wall_s is, so that host drift between the untraced
    # and the traced half does not read as overhead.
    layer["trace.overhead_s"] = median(r.wall_s * r.scale for r in traced) - median(series["wall_s"])
    for name in ("cold_pass_s", "warm_pass_s", "disk_mb"):
        layer[f"cache.{name}"] = median(series[name]) if name in series else 0.0
    return layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lfunlab = import_lfunlab()
    commands = workloads.generate(args.workload, args.seed)
    setup, setup_cal = ([], []) if args.trace else measure_setup(args.workload, args.seed)

    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as workdir:
        runner = Runner(lfunlab, commands, Path(workdir))
        # A traced run splits its time: untraced passes for the overhead
        # baseline, then traced passes.
        budget = args.seconds / 2 if args.trace else args.seconds
        warmup, untraced = run_passes(runner, budget, warmup=True)
        traced, trace_metrics = [], []
        if args.trace:
            import tracer

            runner.tracer = tracer.Tracer(lfunlab)
            _, traced = run_passes(runner, budget, False, trace_metrics)

    passes = warmup + untraced + traced
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    series = {
        "setup_s": [t * host_scale(setup_cal + runner.cal, SETUP_ELASTICITY) for t in setup],
        "wall_s": [r.wall_s * r.scale for r in untraced],
        "ops_per_s": [r.ops / (r.wall_s * r.scale) for r in untraced],
        "raw_setup_s": setup,
        "raw_wall_s": [r.wall_s for r in untraced],
        "calibration_s": setup_cal + runner.cal,
    }
    for name in ("cold_pass_s", "warm_pass_s", "disk_mb"):
        if all(name in r.extra for r in untraced):
            series[name] = [r.extra[name] for r in untraced]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(raw_setup_s="s raw", raw_wall_s="s raw", calibration_s="s raw",
                 cold_pass_s="s raw", warm_pass_s="s raw", disk_mb="MB")
    # One pass is what a user's invocations hold; later passes in the same
    # process only add allocator growth, which depends on the pass count.
    peak_rss_mb = warmup[0].peak_rss_mb
    print_summary(args, commands, units, series, peak_rss_mb, attempted, failed,
                  sorted({p for r in passes for p in r.problems}))

    if args.trace:
        layer = layer_metrics(trace_metrics, traced, series)
        print(f"traced wall {layer['trace.wall_s']:.4f} s over {len(traced)} passes, attributed to "
              f"layers {layer['trace.attributed_s']:.4f} s, overhead {layer['trace.overhead_s']:.4f} s")
        for m in spec["per_layer"]:
            value = layer.get(m["name"])
            print(f"  {m['name']:<40}{'absent' if value is None else f'{value:.6g}':>14}  {m['unit']}")
        TRACE_DIR.mkdir(exist_ok=True)
        spans = [dict(zip(("id", "name", "start", "end", "parent"), s)) for s in runner.tracer.spans]
        (TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
        metrics = {m["name"]: {"value": layer.get(m["name"]), "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": median(series["setup_s"]),
            "wall_s": median(series["wall_s"]),
            "ops_per_s": median(series["ops_per_s"]),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
