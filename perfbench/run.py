"""stochstore benchmark: runs one workload of CLI commands and reports metrics.

    python3 perfbench/run.py --workload grid_day24_fine --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The commands run in this process through ``stochstore.cli.main``
with numpy's thread pools pinned to one thread.  Each command's output is
checked (``checker.py``); a command that exits 2-4, raises, or fails its
check counts as failed.

``--trace 0`` measures set-up time in fresh interpreters, then repeats
untraced passes of the workload for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` alternates untraced passes with passes
traced by ``spans.py`` and reports the per-layer metrics plus the tracing
overhead.  Every run starts with one untimed warm-up pass: the first
16384-cell ``np.convolve`` in a fresh process sometimes takes ~1 s instead
of ~0.1 s, and that first pass's time is recorded as ``first_pass_s`` in the
result file instead of entering ``wall_s``.

Times are built from the fastest command runs (see ``fastest_pass_s``),
and each command starts on the CPU that is fastest at that moment (see
``on_fastest_cpu``): on a shared host each vCPU is slowed up to ~2x for
fractions of a second to minutes at a time, and the median of a run's passes
moves with how long that lasts.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name and unit.  A result file with the same metrics, each pass's
times and the provenance of the run is written to
``.perfbench/BENCH_<workload>_seed<seed>_trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from checker import check_command
from workloads import WORK_METRIC, WORKLOADS

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

MIN_PASSES = 3
SETUP_RUNS = 15
SETUP_CHILD = """\
import time
from importlib import resources
import stochstore
for name in {names!r}:
    stochstore.parse_scenario((resources.files("stochstore") / "scenarios" / f"{{name}}.json").read_text(encoding="utf-8"))
print(time.monotonic())
"""

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}


@dataclass
class PassRecord:
    command_s: list[float] = field(default_factory=list)  # in the workload's command order
    work: float = 0.0
    attempted: int = 0
    failed: int = 0
    alarms: int = 0


class Runner:
    """Runs passes of one workload's commands and checks every output."""

    def __init__(self, cli, commands, outdir: Path, reference: dict) -> None:
        self.cli = cli
        self.commands = commands
        self.outdir = outdir
        self.reference = reference
        self.problems: list[str] = []
        self.passes = 0

    def _call(self, argv: list[str]):
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = self.cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception:  # a command that raises is a failed command, not a crashed benchmark
            rc = "raised"
            sink.write(traceback.format_exc())
        return rc, sink.getvalue()

    def run_pass(self) -> PassRecord:
        gc.collect()
        rec = PassRecord()
        self.passes += 1
        for cmd in self.commands:
            on_fastest_cpu()
            argv = cmd.argv(self.outdir)
            t0 = time.perf_counter()
            rc, text = self._call(argv)
            dt = time.perf_counter() - t0
            outcome = check_command(cmd, rc, self.outdir, self.reference)
            rec.command_s.append(dt)
            rec.attempted += 1
            rec.alarms += outcome.alarms
            if outcome.problems:
                rec.failed += 1
                self.problems.append(f"{' '.join(argv)}: {'; '.join(outcome.problems[:5])}\n{text[-2000:]}")
                continue
            rec.work += {"analyze": 1, "simulate": cmd.n}.get(cmd.kind, outcome.estimates * (cmd.n or 0))
        return rec


def probe_s() -> float:
    """Time of a fixed ~1 ms loop of Python arithmetic on the current CPU."""
    t0 = time.perf_counter()
    x = 0
    for i in range(20_000):
        x = (x + i * i) % 1_000_003
    return time.perf_counter() - t0


def on_fastest_cpu() -> None:
    """Move this process to the CPU that runs a short probe fastest now.

    Each vCPU of a shared host is slowed up to ~2x for fractions of a second
    to minutes at a time, independently of the others; starting each
    command on the CPU that is fast at that moment makes more of its runs
    uncontended.
    """
    if len(CPUS) > 1:
        times = {}
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = probe_s()
        os.sched_setaffinity(0, {min(times, key=times.get)})


def measure_setup(names: list[str]) -> list[float]:
    """Seconds from spawning an interpreter until stochstore and the scenarios are loaded."""
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = SETUP_CHILD.format(names=sorted(set(names)))
    samples = []
    for _ in range(SETUP_RUNS):
        on_fastest_cpu()
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return samples


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(stochstore, np, seed: int, commands, reference: dict) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(CPUS) or os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload_seed": seed,
        "command_seeds": sorted({c.seed for c in commands}),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "src_lines": src_lines,
        "public_api_size": len(stochstore.__all__),
        "reference_commit": reference.get("commit"),
    }


def median(values) -> float:
    return float(statistics.median(values))


def fastest_pass_s(passes: list[PassRecord], commands, kinds=None) -> float:
    """One pass's time on an uncontended CPU, from the fastest command runs.

    On a shared host each vCPU is slowed up to ~2x at times, in proportions
    that change from minute to minute, so a median over passes follows the
    host's load.  Instead, each command is charged the fastest of all runs
    of the same work (up to the seed) in the run: with many short runs
    started on the fastest CPU, some fall in a quiet moment in every run.
    """
    fastest: dict[tuple, float] = {}
    for p in passes:
        for cmd, seconds in zip(commands, p.command_s):
            if kinds is None or cmd.kind in kinds:
                fastest[cmd.work] = min(seconds, fastest.get(cmd.work, seconds))
    return sum(fastest[cmd.work] for cmd in commands if cmd.work in fastest)


def end_to_end(passes: list[PassRecord], setup: list[float], commands, work_metric: str):
    wall = fastest_pass_s(passes, commands)
    metrics = {
        "setup_s": median(setup),
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "work_per_s": median(p.work for p in passes) / wall,
    }
    # Per-workload names for these figures, printed and kept in the result file.
    named = {work_metric: (metrics["work_per_s"], "1/s")}
    for kind in ("validate", "sweep"):
        if any(c.kind == kind for c in commands):
            named[f"{kind}_s"] = (fastest_pass_s(passes, commands, (kind,)), "s")
    named["wall_median_s"] = (median(sum(p.command_s) for p in passes), "s")
    return metrics, named


def per_layer(layers: list[dict], traced: list[PassRecord], untraced: list[PassRecord], commands):
    """Fastest time over the traced passes; counts must repeat exactly."""
    metrics, varying = {}, []
    for name in sorted(set().union(*layers)):
        values = [layer[name] for layer in layers if name in layer]
        if len(values) < len(layers):
            continue  # absent in some pass: report it absent
        if name.endswith("_s"):
            metrics[name] = min(values)
        else:
            if len(set(values)) > 1:
                varying.append(name)
            metrics[name] = median(values)
    metrics["cli.validate_alarms"] = median(p.alarms for p in traced)
    metrics["trace.overhead_s"] = fastest_pass_s(traced, commands) - fastest_pass_s(untraced, commands)
    return metrics, varying


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "scenario.bytes_written":
        return "bytes"
    if name == "montecarlo.redraw_factor":
        return "ratio"
    if name == "balance.convolve_products":
        return "count_computed"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    os.environ.update(THREAD_PINS)  # before numpy is imported
    args = parse_args(argv)
    if not (SRC / "stochstore" / "__init__.py").is_file():
        print(f"perfbench: no stochstore sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np
    import stochstore
    from stochstore import cli

    import spans

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    commands = WORKLOADS[args.workload](args.seed, reference)
    outdir = OUT / f"run-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli, commands, outdir, reference)
    result_file = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    try:
        setup = [] if args.trace else measure_setup([c.scenario for c in commands])
        warm = runner.run_pass()
        record["first_pass_s"] = sum(warm.command_s)
        all_passes = [warm]
        untraced, traced, layers = [], [], []
        recorder = spans.SpanRecorder()
        t_start = time.perf_counter()
        last_pass_s = 0.0
        while len(untraced) < MIN_PASSES or time.perf_counter() - t_start + last_pass_s < args.seconds:
            t_pass = time.perf_counter()
            untraced.append(runner.run_pass())
            if args.trace:
                recorder.reset()
                with spans.Instrumentation(recorder) as inst:
                    traced.append(runner.run_pass())
                stats = spans.reduce_spans(recorder)
                layers.append(spans.layer_metrics(stats, inst.present, recorder.failed_counters))
                recorder.reset()
            last_pass_s = time.perf_counter() - t_pass
        all_passes += untraced + traced
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    lines = [
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(untraced)} untraced + {len(traced)} traced passes after a {sum(warm.command_s):.3f} s warm-up pass"
    ]
    if args.trace:
        metrics, varying = per_layer(layers, traced, untraced, commands)
        result = {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()}
        record["counts_varying_between_passes"] = varying
        record["traced_command_s"] = [p.command_s for p in traced]
    else:
        metrics, named = end_to_end(untraced, setup, commands, WORK_METRIC[args.workload])
        result = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in metrics.items()}
        named["failed_frac"] = (failed / attempted, "fraction")
        record["named_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        record["setup_samples_s"] = setup
        for name, (v, u) in named.items():
            lines.append(f"  {name:<34} {v:.6g} {u}")
        lines.append(f"  validate checks outside their interval: {sum(p.alarms for p in untraced)}")
    record["untraced_command_s"] = [p.command_s for p in untraced]
    for name, m in result.items():
        lines.append(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    lines.append(f"  commands attempted {attempted}, failed {failed}")

    final = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}
    record.update(result_line=final, problems=runner.problems[:20])
    record["provenance"] = provenance(stochstore, np, args.seed, commands, reference)
    OUT.mkdir(exist_ok=True)
    result_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in runner.problems[:5]:
        print(problem, file=sys.stderr)
    print("\n".join(lines))
    print(f"  result file: {result_file.relative_to(ROOT)}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
