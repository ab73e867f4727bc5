"""Benchmark of the panopose command-line toolkit.

    python3 perfbench/run.py --workload score --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is taken from ``src/``.
Each command is a fresh ``python -m panopose`` process, one at a time, as a
user runs them (a closed loop with one client). The workload's inputs are
generated from ``--seed``, the command chain runs once with every output
checked, and then repeats for ``--seconds``; every repeat must reproduce the
checked output bytes.

``--trace 0`` reports the end-to-end metrics (medians over the repeats).
``--trace 1`` also runs each repeat in-process, once plain and once with
spans around the program's public functions, and reports the per-layer
metrics of :mod:`spans`. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a record with the
quartiles, input sizes, versions and output digests is written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref
import spans
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

# End-to-end metric -> (unit, statistic over the run's samples). wall_s is
# the fastest pass: on a shared host, slowdowns from other tenants last
# from seconds to minutes, and the per-run median of 3-4 passes followed
# them (pipeline on a shared 2-vCPU VM, ten seeds: IQR/median 0.26 for the
# median, 0.14 for the fastest pass).
END_TO_END = {"wall_s": ("s", "min"), "setup_s": ("s", "median"),
              "peak_rss_mb": ("MB", "median")}
MIN_REPEATS = 3
PROBES_PER_PASS = 2
LAST_START_S = 100.0  # no repeat starts later, so a run ends well inside 180 s


@dataclass
class Call:
    argv: list
    seconds: float
    code: int
    stdout: str
    stderr: str
    maxrss_mb: float = 0.0


def summary(values) -> dict:
    values = list(values)
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "min": 0.0, "n": 0, "values": []}
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "n": len(values),
            "values": values}


class Bench:
    def __init__(self, workload: wl.Workload) -> None:
        self.wl = workload
        self.work = workload.work
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.env = dict(os.environ)
        extra = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")

    # -- invocations --------------------------------------------------------------

    def spawn(self, argv) -> Call:
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "panopose", *argv],
                                    stdout=out, stderr=err, env=self.env, cwd=self.work)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Call(argv, seconds, proc.returncode, out_path.read_text(), err_path.read_text(),
                    usage.ru_maxrss / 1024.0)

    def in_process(self, argv, tracer: spans.Tracer | None = None) -> Call:
        from panopose import cli

        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli.run(argv)
            else:
                with tracer.span(f"cli.run.{wl.metric_of(argv)}"):
                    code = cli.run(argv)
        return Call(argv, time.perf_counter() - start, code, out.getvalue(), err.getvalue())

    def record(self, call: Call, problems=()) -> bool:
        """Count one attempted invocation; it fails on a non-zero exit or a
        failed output check."""
        self.attempted += 1
        problems = list(problems)
        if call.code != 0:
            problems.insert(0, f"{call.argv[0]} exited {call.code}: {call.stderr.strip()[-400:]}")
        if problems:
            self.failures.append("; ".join(problems))
        return not problems

    def checked(self, call: Call, check) -> bool:
        if call.code != 0:
            return self.record(call)
        try:
            problems = check(call.stdout)
        except Exception as exc:  # a malformed output must fail the check, not the run
            problems = [f"{call.argv[0]}: output check raised {exc!r}"]
        return self.record(call, problems)

    def probe(self) -> float:
        call = self.spawn(["--version"])
        self.record(call, [] if call.stdout.startswith("panopose ") else ["--version: no version"])
        return call.seconds

    # -- passes ---------------------------------------------------------------------

    def checked_pass(self) -> list[Call] | None:
        """Run the chain once, checking every output; remember the digests.
        The checks run between the commands, outside their timings."""
        calls = []
        for argv in self.wl.steps:
            call = self.spawn(argv)
            calls.append(call)
            self.checked(call, lambda out, argv=argv: self.wl.after_step(argv, out))
            if call.code != 0:
                return None
        for argv, check in self.wl.self_checks():
            self.checked(self.spawn(argv), check)
        self.digests = {p.name: ref.sha256(p) for argv in self.wl.steps
                        for p in wl.outputs_of(argv)}
        return calls

    def repeat(self, run) -> list[Call] | None:
        """One more pass of the chain; outputs must match the checked bytes."""
        calls = []
        for argv in self.wl.steps:
            call = run(argv)
            calls.append(call)
            if call.code != 0:
                self.record(call)
                return None
        for call in calls:
            changed = [p.name for p in wl.outputs_of(call.argv)
                       if ref.sha256(p) != self.digests[p.name]]
            self.record(call, [f"{call.argv[0]}: output bytes differ: {changed}"] if changed else [])
        return calls

    def json_floor(self) -> float:
        total = 0.0
        for argv in self.wl.steps:
            for path in wl.datasets_in(argv):
                text = path.read_text(encoding="utf-8")
                start = time.perf_counter()
                json.loads(text)
                total += time.perf_counter() - start
        return total


def wall(calls: list[Call]) -> float:
    return sum(c.seconds for c in calls)


def command_seconds(passes: list[list[Call]]) -> dict[str, dict]:
    stems = list(dict.fromkeys(wl.metric_of(c.argv) for c in passes[0]))
    return {f"{s}_s": summary(sum(c.seconds for c in p if wl.metric_of(c.argv) == s) for p in passes)
            for s in stems}


def measure(bench: Bench, checked: list[Call], seconds: int, started: float) -> dict:
    """Untraced repeats: the end-to-end metrics. The checked pass counts as
    one more sample, since its checks run outside the command timings."""
    passes, probes = [checked], []
    deadline = time.perf_counter() + seconds
    while len(passes) - 1 < MIN_REPEATS or time.perf_counter() < deadline:
        calls = bench.repeat(bench.spawn)
        if calls is None:
            break
        passes.append(calls)
        probes += [bench.probe() for _ in range(PROBES_PER_PASS)]
        if time.perf_counter() - started > LAST_START_S:
            break
    table = {
        "wall_s": summary(wall(p) for p in passes),
        "setup_s": summary(probes),
        "peak_rss_mb": summary(max(c.maxrss_mb for c in p) for p in passes),
    }
    if passes:
        table.update(command_seconds(passes))
    metrics = {name: table[name][stat] for name, (_, stat) in END_TO_END.items()}
    return {"metrics": metrics, "table": table,
            "units": {name: unit for name, (unit, _) in END_TO_END.items()}}


def trace(bench: Bench, seconds: int, started: float) -> dict:
    """Untraced and traced repeats side by side: the per-layer metrics."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    counts = wl.file_counts(bench.wl.steps)
    samples, floors, probes = [], [], []
    walls = {"subprocess": [], "in_process": [], "traced": []}
    last_spans: list = []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_REPEATS or time.perf_counter() < deadline:
        sub = bench.repeat(bench.spawn)
        probes += [bench.probe() for _ in range(PROBES_PER_PASS)]
        tracer = spans.Tracer()
        # Alternate which in-process repeat goes first, so neither always
        # runs on the caches the other left behind.
        for traced_turn in (False, True) if len(samples) % 2 == 0 else (True, False):
            if traced_turn:
                with tracer.installed():
                    traced = bench.repeat(lambda argv: bench.in_process(argv, tracer))
            else:
                plain = bench.repeat(bench.in_process)
        if sub is None or plain is None or traced is None:
            break
        walls["subprocess"].append(wall(sub))
        walls["in_process"].append(wall(plain))
        walls["traced"].append(wall(traced))
        samples.append(spans.per_layer(tracer.spans))
        floors.append(bench.json_floor())
        last_spans = tracer.spans
        if time.perf_counter() - started > LAST_START_S:
            break
    metrics = {name: 0.0 for name in spans.PER_LAYER}
    if samples:
        metrics.update({k: statistics.median(s[k] for s in samples) for k in samples[0]})
        metrics["dataio.json_s"] = statistics.median(floors)
        metrics["cli.setup_share"] = (statistics.median(probes) * len(bench.wl.steps)
                                      / statistics.median(walls["subprocess"]))
        metrics["trace.overhead_ratio"] = (statistics.median(walls["traced"])
                                           / statistics.median(walls["in_process"]))
    metrics.update(counts)
    if metrics["weights.load_s"] > 0:
        metrics["weights.load_mb_per_s"] = metrics["weights.bytes_in"] / 1e6 / metrics["weights.load_s"]
    return {
        "metrics": metrics,
        "table": {k: summary(v) for k, v in walls.items()},
        "units": {k: unit for k, (unit, _) in spans.PER_LAYER.items()},
        "spans": [[name, start, end, parent] for name, start, end, parent in last_spans],
    }


def metadata(args, workload: wl.Workload) -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
        "sizes": workload.sizes,
    }


def print_table(meta: dict, result: dict, bench: Bench) -> None:
    print(f"panopose benchmark: workload {meta['workload']}, seed {meta['seed']}, "
          f"trace {meta['trace']}; python {meta['python']}, numpy {meta['numpy']}, "
          f"scipy {meta['scipy']}, nproc {meta['nproc']}")
    print("sizes: " + ", ".join(f"{k}={v}" for k, v in meta["sizes"].items()))
    heading = "walls of the repeats" if meta["trace"] else "end-to-end, untraced"
    print(f"{heading} (median [q1, q3], min, over n):")
    for name, s in result["table"].items():
        unit = result["units"].get(name, "s")
        print(f"  {name:<22} {s['median']:.6g} {unit}  [{s['q1']:.6g}, {s['q3']:.6g}]"
              f"  min {s['min']:.6g}  n={s['n']}")
    print(f"  {'ops_failed_ratio':<22} {len(bench.failures) / max(bench.attempted, 1):.6g} ratio"
          f"  ({len(bench.failures)}/{bench.attempted} invocations)")
    if meta["trace"]:
        print("per-layer (traced in-process repeats, median):")
        for name, value in result["metrics"].items():
            print(f"  {name:<30} {value:.6g} {result['units'][name]}")
    for name, digest in sorted(bench.digests.items()):
        print(f"  sha256 {name:<18} {digest}")
    for problem in bench.failures:
        print(f"  FAILED: {problem}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "panopose" / "__main__.py").is_file():
        print("error: no panopose sources in src/panopose; run inside a repository checkout",
              file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = wl.WORKLOADS[args.workload](work, args.seed)
        setup_seconds = time.perf_counter() - started
        bench = Bench(workload)
        checked = bench.checked_pass()
        completed = checked is not None
        if not completed:
            result = {"metrics": {}, "table": {}, "units": {}}
        elif args.trace:
            result = trace(bench, args.seconds, started)
        else:
            result = measure(bench, checked, args.seconds, started)
        meta = metadata(args, workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    units = spans.PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(result["metrics"].get(name, 0.0)), "unit": unit}
               for name, (unit, _) in units.items()}
    meta.update(input_setup_s=setup_seconds, run_s=time.perf_counter() - started)
    print_table(meta, result, bench)
    OUT_ROOT.mkdir(exist_ok=True)
    record = {**meta, "attempted": bench.attempted, "failures": bench.failures,
              "digests": bench.digests, **result}
    out_file = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps({"correct": completed and not bench.failures,
                      "attempted": max(bench.attempted, 1), "failed": len(bench.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
