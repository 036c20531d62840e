"""Seeded end-to-end and per-layer benchmark of the ``simplets`` CLI.

    python3 perfbench/run.py --workload approx-n1600 --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --runs 10     # every workload, 10 seeds each
    python3 perfbench/run.py --smoke                      # toy sizes, checks metric names

Run it from the repository root; it builds nothing and imports the package
from ``src/``.  Each measured command runs ``simplets.cli.main`` with the
workload's argv in a fresh interpreter, and its output is checked against
the pinned reference (see ``workloads.py``).

With ``--trace 0`` a run runs the whole command back to back for about
``--seconds`` seconds, at least once, and reports medians over the commands.
Between commands it times a fixed reference kernel (``calibrate.py``) and
scales each command's times to the reference speed, so the shared host's
speed drift cancels out; the unscaled medians are printed too.  With
``--trace 1`` it runs the command once untraced and once with spans
(``tracer.py``), then the fixed-input kernel microbenchmarks, and prints the
per-layer metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
import workloads as wl  # noqa: E402

# A run must end within 180 s; stop starting commands well before that.
RUN_DEADLINE_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "simplets_per_s": "1/s",
}

PER_LAYER = {
    "io.load_complex_s": "s",
    "complexes.build_complex_s": "s",
    "complexes.connected_components_s": "s",
    "complexes.skeleton_diameter_s": "s",
    "complexes.skeleton_diameter_calls": "count",
    "complexes.simplices_us": "us",
    "catalog.generate_catalog_s": "s",
    "catalog.classify_us": "us",
    "catalog.classify_calls": "count",
    "exact.subsets": "count",
    "exact.enumerate_per_s": "1/s",
    "exact.exact_counts_s": "s",
    "sampler.init_s": "s",
    "sampler.burn_in_steps": "count",
    "sampler.mh_steps": "count",
    "sampler.sample_ms": "ms",
    "sampler.step_us": "us",
    "sampler.state_degree_us": "us",
    "approx.required_samples": "count",
    "approx.approximate_sfd_s": "s",
    "approx.empirical_sfd_s": "s",
    "approx.trial_s": "s",
    "generate.generate_s": "s",
    "cli.self_s": "s",
    "cli.pool_busy_frac": "ratio",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


class Child(NamedTuple):
    code: int
    wall: float  # seconds from just before start to exit
    start: float  # time.monotonic() just before start
    rss_mb: float
    stdout: str
    out_dir: Path


class Runner:
    """Starts child interpreters in the checkout and always reaps them."""

    def __init__(self, root: Path, run_dir: Path, started: float):
        self.root = root
        self.run_dir = run_dir
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.count = 0

    def child(self, mode: str, args: list[str]) -> Child:
        """Run ``child.py mode`` and wait for it."""
        self.count += 1
        out_dir = self.run_dir / f"{self.count:03d}-{mode}"
        out_dir.mkdir()
        timeout = self.started + 175.0 - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time for this run")
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode, str(out_dir)] + args
        with open(out_dir / "stdout", "w+b") as out, open(out_dir / "stderr", "w+b") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out, stderr=err,
                                    start_new_session=True)
            try:
                status, rusage = _wait(proc.pid, timeout)
                wall = time.monotonic() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                _kill_group(proc)
            out.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        if proc.returncode != 0 and mode != "run":
            raise BenchError(f"child {mode} exited {proc.returncode}: {stderr[-2000:]}")
        # ru_maxrss is in KiB on Linux and covers reaped pool workers too.
        return Child(proc.returncode, wall, start, rusage.ru_maxrss / 1024.0, stdout, out_dir)


def _wait(pid: int, timeout: float):
    """Block until the child ends; a watchdog kills its group after ``timeout``."""
    watchdog = threading.Timer(timeout, _kill_quietly, (pid,))
    watchdog.start()
    try:
        _pid, status, rusage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
    if os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL:
        raise BenchError(f"child {pid} was killed after {timeout:.0f} s")
    return status, rusage


def _kill_quietly(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the child's process group (pool workers too)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    if proc.returncode is None:
        try:
            os.waitpid(proc.pid, 0)
        except ChildProcessError:
            pass


def _median(values):
    return statistics.median(values) if values else 0.0


def _prepare(root: Path, workload, entry):
    src = root / "src"
    if not (src / "simplets" / "__init__.py").is_file():
        raise BenchError(f"no simplets package under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import simplets

    if Path(simplets.__file__).resolve().parent != (src / "simplets").resolve():
        raise BenchError(f"imported simplets from {simplets.__file__}, not from {src}")
    # Byte-compile once so no measured interpreter pays for it.
    compileall.compile_dir(str(src / "simplets"), quiet=1)
    compileall.compile_dir(str(BENCH_DIR), quiet=1, maxlevels=0)
    return wl.check_input(workload, entry)


def measure(runner: Runner, workload, entry, seed: int, seconds: float, input_path: str):
    """Run the whole command back to back for about ``seconds`` seconds, with
    the reference kernel timed between commands, and report medians scaled
    to the reference speed (``calibrate.py``)."""
    argv = wl.command_argv(workload, entry, seed, input_path)
    walls, setups, rates, rss, verdicts = [], [], [], [], []
    raw_walls, raw_setups, speeds = [], [], []
    cpus = calibrate.cpus_for(workload.processes)
    kernel = calibrate.kernel_seconds(cpus)
    loop_start = time.monotonic()
    while True:
        child = runner.child("run", ["--"] + argv)
        before, kernel = kernel, calibrate.kernel_seconds(cpus)
        speed = calibrate.speed(before, kernel)
        verdict = wl.check_output(workload, entry, child.stdout, child.code)
        _report_problems(verdict, child.out_dir)
        mark = child.out_dir / "first-work"
        if mark.exists():
            raw_setups.append(float(mark.read_text()) - child.start)
            setups.append(raw_setups[-1] * speed)
        elif verdict.correct:
            raise BenchError("the command finished without reaching its first unit of work")
        verdicts.append(verdict)
        raw_walls.append(child.wall)
        speeds.append(speed)
        walls.append(child.wall * speed)
        rates.append(verdict.simplets / walls[-1])
        rss.append(child.rss_mb)
        print(f"command {len(walls)}: wall {child.wall:.3f} s, kernel {before * 1e3:.2f}/"
              f"{kernel * 1e3:.2f} ms, scaled wall {walls[-1]:.3f} s", file=sys.stderr)
        now = time.monotonic()
        typical = _median(raw_walls)
        if (now - loop_start + typical > seconds
                or now - runner.started + typical > RUN_DEADLINE_S):
            break
    metrics = {
        "wall_s": _median(walls),
        "setup_s": _median(setups),
        "peak_rss_mb": max(rss),
        "simplets_per_s": _median(rates),
    }
    # Unscaled figures, for the record; they are not in the result line.
    extra = {
        "raw.wall_s": _median(raw_walls),
        "raw.setup_s": _median(raw_setups),
        "host.speed": _median(speeds),
        "commands": len(walls),
    }
    return metrics, END_TO_END, verdicts, extra


def _report_problems(verdict, out_dir: Path) -> None:
    for problem in verdict.problems:
        print(f"output check: {problem}", file=sys.stderr)
    if verdict.problems and (out_dir / "stderr").exists():
        print((out_dir / "stderr").read_text()[-2000:], file=sys.stderr)


def trace(runner: Runner, workload, entry, seed: int, input_path: str):
    argv = wl.command_argv(workload, entry, seed, input_path)
    walls, verdicts = {}, []
    for mode in (("run", "trace") if seed % 2 == 0 else ("trace", "run")):
        child = runner.child(mode, ["--"] + argv)
        verdict = wl.check_output(workload, entry, child.stdout, child.code)
        _report_problems(verdict, child.out_dir)
        verdicts.append(verdict)
        walls[mode] = child.wall
        if mode == "trace":
            trace_dir, output = child.out_dir, (json.loads(child.stdout) if verdict.correct else {})
    micro = json.loads(runner.child("micro", [input_path, str(workload.m), str(seed)]).stdout)

    import tracer

    per_process = tracer.load_spans(trace_dir)
    spans = [span for process in per_process for span in process]
    busy, calls, steps = {}, {}, {}
    burn_in = 0
    for span in spans:
        busy[span["name"]] = busy.get(span["name"], 0.0) + span["busy"]
        calls[span["name"]] = calls.get(span["name"], 0) + span["calls"]
        steps[span["name"]] = steps.get(span["name"], 0) + span["steps"]
        if span["name"] == "sampler.init" and span["burn_in"]:
            burn_in = span["burn_in"]
    cli_self = sum(
        self_time
        for process in per_process
        for span, self_time in zip(process, tracer.self_times(process))
        if span["name"] == "cli.main"
    )

    def per_call(name, scale):
        return busy.get(name, 0.0) / calls[name] * scale if calls.get(name) else 0.0

    mh_steps = steps.get("sampler.sample", 0)
    pool_busy = 0.0
    if len(per_process) > 1 and output:
        # Trials ran in pool workers while the command waited on the pool.
        sampling_s = output["timing"]["sampling_seconds"]
        pool_busy = busy.get("approx.approximate_sfd", 0.0) / (output["params"]["threads"] * sampling_s)
        cli_self -= sampling_s
    metrics = {
        "io.load_complex_s": busy.get("io.load_complex", 0.0),
        "complexes.build_complex_s": busy.get("complexes.build_complex", 0.0),
        "complexes.connected_components_s": busy.get("complexes.connected_components", 0.0),
        "complexes.skeleton_diameter_s": busy.get("complexes.skeleton_diameter", 0.0),
        "complexes.skeleton_diameter_calls": calls.get("complexes.skeleton_diameter", 0),
        "complexes.simplices_us": per_call("complexes.simplices", 1e6),
        "catalog.generate_catalog_s": busy.get("catalog.generate_catalog", 0.0),
        "catalog.classify_us": micro["classify_us"],
        "catalog.classify_calls": calls.get("catalog.classify", 0),
        "exact.subsets": calls.get("exact.enumerate", 0),
        "exact.enumerate_per_s": (calls["exact.enumerate"] / busy["exact.enumerate"]
                                  if calls.get("exact.enumerate") else 0.0),
        "exact.exact_counts_s": busy.get("exact.exact_counts", 0.0),
        "sampler.init_s": busy.get("sampler.init", 0.0),
        "sampler.burn_in_steps": burn_in,
        "sampler.mh_steps": mh_steps,
        "sampler.sample_ms": per_call("sampler.sample", 1e3),
        "sampler.step_us": busy.get("sampler.sample", 0.0) / mh_steps * 1e6 if mh_steps else 0.0,
        "sampler.state_degree_us": micro["state_degree_us"],
        "approx.required_samples": (calls.get("sampler.sample", 0) // calls["approx.approximate_sfd"]
                                    if calls.get("approx.approximate_sfd") else 0),
        "approx.approximate_sfd_s": busy.get("approx.approximate_sfd", 0.0),
        "approx.empirical_sfd_s": busy.get("approx.empirical_sfd", 0.0),
        "approx.trial_s": per_call("approx.approximate_sfd", 1.0),
        "generate.generate_s": busy.get("generate.generate", 0.0),
        "cli.self_s": cli_self,
        "cli.pool_busy_frac": pool_busy,
        "trace.overhead_s": walls["trace"] - walls["run"],
    }
    _print_span_table(spans, per_process)
    return metrics, PER_LAYER, verdicts, {}


def _print_span_table(spans, per_process) -> None:
    import tracer

    rows: dict[str, list] = {}
    for process in per_process:
        for span, self_time in zip(process, tracer.self_times(process)):
            row = rows.setdefault(span["name"], [0, 0, 0.0, 0.0])
            row[0] += 1
            row[1] += span["calls"]
            row[2] += span["busy"]
            row[3] += self_time
    print(f"{'span':32} {'records':>8} {'calls':>9} {'total_s':>9} {'self_s':>9}", file=sys.stderr)
    for name, (records, calls, total, self_time) in sorted(rows.items(), key=lambda r: -r[1][2]):
        print(f"{name:32} {records:8d} {calls:9d} {total:9.3f} {self_time:9.3f}", file=sys.stderr)
    print(f"{len(spans)} span records in {len(per_process)} processes", file=sys.stderr)


def run_once(workload_name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    started = time.monotonic()
    root = Path.cwd()
    table = wl.SMOKE_WORKLOADS if smoke else wl.WORKLOADS
    if workload_name not in table:
        raise BenchError(f"unknown workload {workload_name!r}; choose from {sorted(table)}")
    workload = table[workload_name]
    entry = wl.pinned_entry(wl.load_pins(smoke), workload, seed)
    _complex, text = _prepare(root, workload, entry)
    run_dir = root / ".perfbench_run" / f"{os.getpid()}-{workload.name}-{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        input_path = str(run_dir / "input.txt")
        Path(input_path).write_text(text, encoding="utf-8")
        runner = Runner(root, run_dir, started)
        if traced:
            metrics, units, verdicts, extra = trace(runner, workload, entry, seed, input_path)
        else:
            metrics, units, verdicts, extra = measure(runner, workload, entry, seed, seconds, input_path)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass
    for name, value in metrics.items():
        print(f"{workload.name:14} {name:36} {value:>16.6f} {units[name]}")
    for name, value in extra.items():
        print(f"{workload.name:14} {name:36} {value:>16.6f} -")
    return {
        "correct": all(v.correct for v in verdicts),
        "attempted": len(verdicts),
        "failed": sum(v.failed for v in verdicts),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def _bench_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def smoke(seed: int) -> dict:
    """Every workload at toy size, untraced and traced; every metric that
    BENCHMARK.json names must come out with its unit."""
    spec = _bench_spec(Path.cwd())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS), "workload names differ"
    results = []
    for name in wl.SMOKE_WORKLOADS:
        for traced in (False, True):
            result = run_once(name, seed, 1.0, traced, smoke=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted[traced], f"{name} trace={traced}: metrics {got} != {wanted[traced]}"
            assert result["correct"] and result["attempted"] >= 1, f"{name}: {result}"
            results.append(result)
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }


def repeat(names: list[str], first_seed: int, runs: int, seconds: float, traced: bool) -> dict:
    """Run each workload ``runs`` times, one seed per round, in separate
    benchmark processes; alternate the workload order between rounds and
    summarise each metric over the runs."""
    spec = _bench_spec(Path.cwd())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[tuple[str, str], list[float]] = {}
    attempted = failed = 0
    correct = True
    for index in range(runs):
        order = names if index % 2 == 0 else names[::-1]
        for name in order:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(first_seed + index), "--seconds", str(seconds),
                   "--trace", str(int(traced))]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                raise BenchError(f"{name} seed {first_seed + index} failed: {proc.stderr[-3000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, item in result["metrics"].items():
                values.setdefault((name, metric), []).append(item["value"])
            for line in proc.stdout.strip().splitlines()[:-1]:
                fields = line.split()
                if len(fields) == 4 and fields[0] == name and fields[3] == "-":
                    values.setdefault((name, fields[1]), []).append(float(fields[2]))
            print(f"run {index + 1}/{runs} {name}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)
    print(f"{'workload':14} {'metric':36} {'n':>3} {'median':>12} {'p_high':>12} {'iqr/med':>8} {'bound':>6}")
    for (name, metric), series in values.items():
        med = statistics.median(series)
        spread = _quartile_spread(series)
        p_high = _high_percentile(series)
        bound = bounds.get(metric)
        print(f"{name:14} {metric:36} {len(series):3d} {med:12.6g} "
              f"{'-' if p_high is None else f'{p_high[1]:.6g} (p{p_high[0]})':>12} "
              f"{'-' if spread is None else f'{spread:.4f}':>8} {'-' if bound is None else bound:>6}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {}}


def _quartile_spread(series):
    if len(series) < 2 or statistics.median(series) == 0:
        return None
    q1, _q2, q3 = statistics.quantiles(series, n=4)
    return (q3 - q1) / statistics.median(series)


def _high_percentile(series):
    """The highest whole percentile (nearest rank) with at least ten samples above it."""
    ordered = sorted(series)
    for pct in range(99, 0, -1):
        rank = max(0, math.ceil(len(ordered) * pct / 100) - 1)
        if len(ordered) - rank - 1 >= 10:
            return pct, ordered[rank]
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=0, help="repeat over this many seeds and summarise")
    parser.add_argument("--smoke", action="store_true", help="toy sizes; check every metric name")
    args = parser.parse_args()
    # On SIGTERM unwind normally, so every child's process group is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.smoke:
            result = smoke(args.seed)
        elif args.workload == "all" or args.runs:
            names = list(wl.WORKLOADS) if args.workload in (None, "all") else [args.workload]
            result = repeat(names, args.seed, max(1, args.runs), args.seconds, bool(args.trace))
        elif args.workload:
            result = run_once(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
        else:
            parser.error("--workload is required")
    except (BenchError, wl.PinError, OSError, AssertionError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
