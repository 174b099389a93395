"""packetlab benchmark: drives packetlab the way users do and times it.

Run from the root of a checkout:

    python3 bench/run.py --workload cold --seed 1 --seconds 30 --trace 0

The driver is a closed loop with one client: it starts the next
invocation only after the previous one has exited, and never runs more
than one packetlab process at a time (``--shards 2`` in the montecarlo
workload is the only place a second worker could appear). It uses the
standard library only; everything that imports packetlab runs in a child
interpreter with ``src`` on PYTHONPATH, so the program is always the one
in this checkout. Workloads, their inputs and the reason each exists are
in workloads.py.

A run makes round(seconds / nominal pass time) whole passes over the
workload's list, and at least enough for eleven latency samples (see
workloads.passes), which takes about ``--seconds`` at the commit that
defined the benchmark. Every output is checked (check.py); an argv that
runs twice in one run must print byte-identical stdout.

``--trace 0`` reports the end-to-end metrics, with no tracing:

    setup_s         median wall time of a fresh interpreter that imports
                    packetlab.cli and exits (library: the in-process import
                    time of packetlab), over several fresh interpreters
    wall_s          median wall time of one pass over the workload's list
    latency_p50_s   median wall time per invocation (library: per call)
    latency_tail_s  the highest percentile with at least ten samples
                    beyond it; its rank and the sample count are printed.
                    With the 17 to 21 invocations of a CLI run that rank
                    lies at or below the median: the run holds too few
                    samples to say more about its tail
    cpu_s           median user + system time per pass, from os.wait4 of
                    the children (library: the worker's own rusage)
    peak_rss_mb     largest child ru_maxrss (library: the worker's own)
    success_rate    1 - error_rate; error_rate = failed / attempted is the
                    result's ``failed`` and ``attempted`` and is printed,
                    but a metric that reads 0 cannot carry a relative bound

``--trace 1`` reports the per-layer metrics (spans.METRICS) of a traced
in-process run (inproc.py): self time and calls of each module, work
counts, the import breakdown from ``python -X importtime``, the spans'
coverage of the traced wall time and the tracing overhead.

The human-readable report and an environment block come first; the last
line of stdout is the result object. Without ``src/packetlab`` beside
this directory the driver exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

import check
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0
CLI_MAIN = "import sys; from packetlab.cli import main; main()"  # the console script
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
]


class Child:
    """One finished child process: its wall time, rusage and exit code."""

    def __init__(self, argv, env, stdout_path: Path, stderr_path: Path):
        fds = [os.open(p, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
               for p in (stdout_path, stderr_path)]
        try:
            t0 = time.perf_counter()
            pid = os.posix_spawn(argv[0], argv, env, file_actions=[
                (os.POSIX_SPAWN_DUP2, fds[0], 1), (os.POSIX_SPAWN_DUP2, fds[1], 2)])
        finally:
            for fd in fds:
                os.close(fd)
        killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        finally:
            killer.cancel()
        self.wall = time.perf_counter() - t0
        self.cpu = usage.ru_utime + usage.ru_stime
        self.maxrss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.returncode = os.waitstatus_to_exitcode(status)
        self.stdout = stdout_path.read_bytes()
        self.stderr = stderr_path.read_bytes().decode("utf-8", "replace")


class Runner:
    """Starts children in a scratch directory inside the checkout."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.env = env
        self.python = sys.executable

    def run(self, argv, tag="child") -> Child:
        return Child(argv, self.env, self.scratch / f"{tag}.out",
                     self.scratch / f"{tag}.err")

    def worker(self, *args) -> tuple:
        """Run inproc.py; return the JSON it printed and the finished child."""
        child = self.run([self.python, str(BENCH / "inproc.py"), *map(str, args)],
                         tag="worker")
        if child.returncode != 0:
            raise RuntimeError(f"inproc.py {args[0]} exited {child.returncode}:\n"
                               + child.stderr[-2000:])
        return json.loads(child.stdout), child

    def cli_setup(self) -> list:
        return [self.run([self.python, "-c", "import packetlab.cli"]).wall
                for _ in range(SETUP_REPEATS)]

    def import_breakdown(self) -> dict:
        """Import times of packetlab.cli and of the scipy.stats modules it
        pulls in, from ``python -X importtime``, medians over fresh runs."""
        cli, stats = [], []
        for _ in range(SETUP_REPEATS):
            report = self.run([self.python, "-X", "importtime", "-c",
                               "import packetlab.cli"]).stderr
            cli.append(import_time(report, lambda name: name == "packetlab.cli"))
            stats.append(import_time(report, lambda name: name == "scipy.stats"
                                     or name.startswith("scipy.stats.")))
        return {"cli.import_s": statistics.median(cli),
                "cli.import_scipy_stats_s": statistics.median(stats)}


def import_time(report: str, wanted) -> float:
    """Cumulative seconds of the modules a ``-X importtime`` report lists
    for which wanted(name) holds, each counted once: a module imported
    under one already counted is part of that one's cumulative time."""
    rows = []
    for line in report.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(),
                         int(parts[1]) * 1e-6))
    # children are printed before their parent, so the reversed report is
    # a pre-order walk and a stack holds each row's open ancestors
    total, stack = 0.0, []  # (depth, inside a counted module)
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        counted = not inside and wanted(name)
        total += cumulative if counted else 0.0
        stack.append((depth, inside or counted))
    return total


def tail(samples) -> tuple:
    """(value, rank, count): the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    rank = len(ordered) - 10
    if rank < 1:
        raise ValueError(f"{len(ordered)} samples leave no percentile with ten beyond it")
    return ordered[rank - 1], rank, len(ordered)


def end_to_end_cli(runner: Runner, workload: str, seed: int, seconds: int) -> dict:
    argvs = workloads.cli_workload(workload, seed)
    setup = runner.cli_setup()
    repeats = check.Repeats()
    pass_walls, pass_cpu, op_walls, problems = [], [], [], []
    peak, failed, mismatches = 0.0, 0, None
    for _ in range(workloads.passes(workload, seconds, len(argvs))):
        t0 = time.perf_counter()
        children = [runner.run([runner.python, "-c", CLI_MAIN, *argv], tag=f"op{i}")
                    for i, argv in enumerate(argvs)]
        pass_walls.append(time.perf_counter() - t0)
        pass_cpu.append(sum(c.cpu for c in children))
        op_walls += [c.wall for c in children]
        peak = max([peak] + [c.maxrss_mb for c in children])
        for argv, c in zip(argvs, children):
            found = check.check_cli(argv, c.returncode,
                                    c.stdout.decode("utf-8", "replace"), c.stderr)
            found += repeats.see(argv, c.stdout)
            failed += bool(found)
            problems += [f"{' '.join(argv)}: {p}" for p in found]
        if mismatches is None:
            mismatches = check.shard_mismatches(
                argvs, [c.stdout.decode("utf-8", "replace") for c in children])
    return {"setup": setup, "pass_walls": pass_walls, "pass_cpu": pass_cpu,
            "op_walls": op_walls, "peak_rss_mb": peak,
            "attempted": len(op_walls), "failed": failed, "problems": problems,
            "detail": {"shard_mismatches": mismatches}}


def end_to_end_library(runner: Runner, seed: int, seconds: int) -> dict:
    setup = [runner.worker("import")[0]["import_s"] for _ in range(SETUP_REPEATS - 1)]
    passes = workloads.passes("library", seconds, len(workloads.library_calls(seed)))
    out, child = runner.worker("library", seed, passes)
    out["setup"] = setup + [out["import_s"]]
    out["peak_rss_mb"] = child.maxrss_mb
    return out


def summarize(raw: dict) -> tuple:
    value, rank, count = tail(raw["op_walls"])
    metrics = {
        "setup_s": statistics.median(raw["setup"]),
        "wall_s": statistics.median(raw["pass_walls"]),
        "latency_p50_s": statistics.median(raw["op_walls"]),
        "latency_tail_s": value,
        "cpu_s": statistics.median(raw["pass_cpu"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "success_rate": 1.0 - raw["failed"] / raw["attempted"],
    }
    detail = dict(raw.get("detail", {}), passes=len(raw["pass_walls"]),
                  latency_tail_percentile=round(100.0 * rank / count, 1),
                  latency_tail_rank=rank, latency_samples=count,
                  error_rate=raw["failed"] / raw["attempted"])
    return metrics, detail, END_TO_END


def per_layer(runner: Runner, workload: str, seed: int, seconds: int) -> tuple:
    raw, _ = runner.worker("trace", workload, seed, seconds)
    raw["metrics"].update(runner.import_breakdown())
    metrics = {name: raw["metrics"][name] for name, _ in spans.METRICS}
    detail = {"traced_passes": raw["passes"]}
    return raw, metrics, detail, spans.METRICS


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "packetlab" / "cli.py").is_file():
        print(f"error: no packetlab source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_out" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(scratch)
        environment, _ = runner.worker("env")  # also compiles the package once
        if args.trace:
            raw, metrics, detail, units = per_layer(runner, args.workload,
                                                    args.seed, args.seconds)
        elif args.workload == "library":
            raw = end_to_end_library(runner, args.seed, args.seconds)
            metrics, detail, units = summarize(raw)
        else:
            raw = end_to_end_cli(runner, args.workload, args.seed, args.seconds)
            metrics, detail, units = summarize(raw)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (ROOT / ".bench_out").rmdir()
        except OSError:
            pass  # another run is still using it

    for problem in raw["problems"][:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"packetlab benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for name, unit in units:
        print(f"  {name:28s} {metrics[name]:>16.6g} {unit}")
    print(f"  {'failed / attempted':28s} {raw['failed']:>10d} / {raw['attempted']}")
    if "latency_samples" in detail:
        print(f"  latency_tail_s is p{detail['latency_tail_percentile']:g}: rank "
              f"{detail['latency_tail_rank']} of {detail['latency_samples']} samples; "
              f"error_rate {detail['error_rate']:g}")
    print(json.dumps({"environment": environment, "detail": detail}))
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
