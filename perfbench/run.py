"""Closed-loop benchmark of the ``plasmonics`` CLI.

    python3 perfbench/run.py --workload scan --seed 0 --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from ``./src``.
One client sends one job at a time, each an in-process
``plasmonics.cli.main([...])`` call with a generated INI config, and sends
the next only when the previous one has returned.  A pass runs every job of
the workload once.  One untimed warm-up pass fills lazy imports and caches;
timed passes then repeat until ``--seconds`` have elapsed.  After
each pass, untimed checks compare every artifact with independent oracles
(``checks.py``).

End-to-end pass costs are relative: the CPU seconds (user + system, of this
process and of any child it has reaped) of a pass, divided by the CPU
seconds of a fixed calibration kernel (``calibrate.py``) run between its
jobs.  On a shared virtual machine the wall time of the same pass moves by a
fifth from minute to minute with the time the hypervisor gives to other
guests, and its CPU time by up to a third with contention for the core; the
ratio cancels both.  ``setup_s`` is the CPU time of fresh interpreters, which is
dominated by imports and stays steady.  Raw CPU and wall times are in the
``# detail`` line and in the traced run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``tracing.py``; it also checks that traced artifacts are byte-identical to
untraced ones, runs the tracer's own self-test, and counts seed-0 artifacts
whose sha256 differs from ``golden.json``.

Metric names and units come from ``BENCHMARK.json``.  Lines starting with
``#`` give machine facts and timing detail; the last line is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import calibrate
import checks
import selftest
import tracing
import workloads

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
WORK_DIR = ".perfbench_work"
HEADLINE = {"scan": "spectrum", "resonate": "resonance", "homogenize": "aniso"}
COMMANDS = ("spectrum", "resonance", "modes", "aniso", "mg", "selftest")
SETUP_REPEATS = 7
SETUP_CODE = """\
import sys
from plasmonics.cli import RunConfig
for path in sys.argv[1:]:
    RunConfig.load(path)
"""


def cpu_time() -> float:
    """CPU seconds used so far by this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def load_library(root: Path):
    """Import ``plasmonics.cli`` from the checkout's ``src``, and nowhere else."""
    pkg = root / "src" / "plasmonics"
    if not (pkg / "cli.py").is_file():
        raise SystemExit(f"perfbench: no library at {pkg}; run from the root of a checkout")
    sys.path.insert(0, str(root / "src"))
    from plasmonics import cli
    if Path(cli.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported {cli.__file__}, not the checkout's library")
    return cli


class Workspace:
    """Config files and output directories of one workload's jobs."""

    def __init__(self, base: Path, jobs):
        self.jobs = jobs
        self.configs, self.outs = [], []
        for job in jobs:
            out = base / job.name
            out.mkdir(parents=True, exist_ok=True)
            cfg = base / f"{job.name}.ini"
            cfg.write_text(job.ini())
            self.configs.append(str(cfg))
            self.outs.append(out)

    def run_pass(self, cli, kernel: bool = False) -> dict:
        """Run every job once; returns per-job wall and CPU times, exit codes and artifacts.

        With ``kernel``, the calibration kernel also runs before the first
        job and after each job, and its mean CPU time is returned as ``kernel``.
        """
        for out in self.outs:
            for f in out.iterdir():
                f.unlink()
        times, cpus, kernels, rcs, stdouts = [], [], [], [], []
        for job, cfg, out in zip(self.jobs, self.configs, self.outs):
            if kernel:
                kernels.append(calibrate.kernel_cpu_s())
            argv = job.argv(cfg, str(out))
            buf, err = io.StringIO(), io.StringIO()
            c0, t0 = cpu_time(), perf_counter()
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
            except Exception as exc:  # a job that raises is a failed job, not a failed run
                rc = f"{type(exc).__name__}: {exc}"
            times.append(perf_counter() - t0)
            cpus.append(cpu_time() - c0)
            if rc != 0:
                rc = f"{rc} {err.getvalue().strip()[:300]}"
            rcs.append(rc)
            stdouts.append(buf.getvalue())
        if kernel:
            kernels.append(calibrate.kernel_cpu_s())
        arts = []
        for out, stdout in zip(self.outs, stdouts):
            files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            if stdout:
                files["stdout"] = stdout.encode()
            arts.append(files)
        return {"times": times, "cpus": cpus, "rcs": rcs, "arts": arts,
                "batch": sum(times), "batch_cpu": sum(cpus),
                "kernel": statistics.mean(kernels) if kernel else None}


def hashes(arts: list[dict]) -> list[dict]:
    return [{k: hashlib.sha256(v).hexdigest() for k, v in a.items()} for a in arts]


class Tally:
    """Attempted and failed jobs, with the first few problems for the log."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.reference = None  # artifact hashes of the first pass

    def check_pass(self, jobs, result, label: str) -> None:
        digests = hashes(result["arts"])
        if self.reference is None:
            self.reference = digests
        for i, job in enumerate(jobs):
            self.attempted += 1
            probs = checks.check_job(job, result["rcs"][i], result["arts"][i])
            if digests[i] != self.reference[i]:
                probs.append(f"{label} artifacts differ from the first pass")
            if probs:
                self.failed += 1
                self.problems.extend(f"{job.name}: {p}" for p in probs[:3])

    def fail(self, problem: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)


def timing(samples: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples above it."""
    s = sorted(samples)
    out = {"median": statistics.median(s), "n": len(s)}
    if len(s) >= 11:
        i = len(s) - 11
        out[f"p{100.0 * (i + 1) / len(s):.0f}"] = s[i]
    return out


def command_sums(jobs, result, key: str = "times") -> dict:
    sums = dict.fromkeys(COMMANDS, 0.0)
    for job, t in zip(jobs, result[key]):
        sums[job.command] += t
    return sums


def measure_setup(root: Path, configs: list[str]) -> list[float]:
    """CPU time of fresh interpreters that import the CLI and load the configs."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        c0 = cpu_time()
        subprocess.run([sys.executable, "-c", SETUP_CODE, *configs], cwd=root, env=env,
                       check=True, stdout=subprocess.DEVNULL, timeout=60)
        times.append(cpu_time() - c0)
    return times


def machine_facts(root: Path, args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha, dirty = "unknown", None
    if (root / ".git").exists():
        git = ["git", "-C", str(root)]
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
            dirty = bool(subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                        capture_output=True, text=True, timeout=30,
                                        check=True).stdout.strip())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "git_sha": sha,
            "dirty": dirty, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def run_untraced(cli, root: Path, ws: Workspace, args, tally: Tally) -> dict:
    setup = measure_setup(root, ws.configs)
    tally.check_pass(ws.jobs, ws.run_pass(cli), "warm-up")
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < args.seconds:
        result = ws.run_pass(cli, kernel=True)
        tally.check_pass(ws.jobs, result, "untraced")
        passes.append(result)
    headline = HEADLINE[args.workload]
    commands = [command_sums(ws.jobs, p, "cpus")[headline] for p in passes]
    detail = {
        "setup_s": timing(setup),
        "batch_rel": timing([p["batch_cpu"] / p["kernel"] for p in passes]),
        "command_rel": timing([c / p["kernel"] for c, p in zip(commands, passes)]),
        "kernel_cpu_s": timing([p["kernel"] for p in passes]),
        "batch_cpu_s": timing([p["batch_cpu"] for p in passes]),
        "command_cpu_s": timing(commands),
        "batch_wall_s": timing([p["batch"] for p in passes]),
        "jobs_cpu_s": {job.name: timing([p["cpus"][i] for p in passes])
                       for i, job in enumerate(ws.jobs)},
        "jobs_wall_s": {job.name: timing([p["times"][i] for p in passes])
                        for i, job in enumerate(ws.jobs)},
    }
    print("# detail " + json.dumps(detail))
    return {
        "setup_s": detail["setup_s"]["median"],
        "batch_rel": detail["batch_rel"]["median"],
        "command_rel": detail["command_rel"]["median"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(s: dict) -> dict:
    """Per-layer metrics of one traced pass from a ``Tracer.summary``."""
    calls, selfs, extras = s["calls"], s["self_s"], s["extras"]
    m = {}
    for module, attr, _ in tracing.SPANS:
        m[f"{module}.{attr}.calls"] = calls[f"{module}.{attr}"]
        m[f"{module}.{attr}.self_s"] = selfs[f"{module}.{attr}"]
    for module, attr in tracing.COUNTS:
        m[f"{module}.{attr}.calls"] = calls[f"{module}.{attr}"]
    m[tracing.TAU_EVALS] = calls[tracing.TAU_EVALS]
    coeffs = calls["mie.scattering_coeffs"]
    m["specfun.bessel_per_coeff"] = s["bessel_under_coeffs"] / coeffs if coeffs else 0.0
    m["specfun.scalar_harmonics_grid.points"] = sum(extras["specfun.scalar_harmonics_grid"])
    m["mie.scan_spectrum.parallelism"] = s["pooled_parallelism"]
    m["mie.degrees"] = sum(n for n, _ in extras["mie.scattering_coeffs"])
    m["mie.flagged_degrees"] = sum(f for _, f in extras["mie.scattering_coeffs"])
    ns = [n for (n,) in extras["sphere_modes.small_r_coeffs"]]
    m["sphere_modes.small_r_coeffs.reuse"] = len(ns) / len(set(ns)) if ns else 0.0
    m["effective.quad_points"] = sum(selftest.quad_points(*e)
                                     for e in extras["effective.q1_multiplet"])
    m["trace.self_sum_s"] = s["self_sum_s"]
    return m


def run_traced(cli, ws: Workspace, args, tally: Tally, base: Path) -> dict:
    tracer = tracing.Tracer()
    tally.check_pass(ws.jobs, ws.run_pass(cli), "warm-up")
    untraced, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start < args.seconds:
        result = ws.run_pass(cli)
        tally.check_pass(ws.jobs, result, "untraced")
        untraced.append(result)
        tracer.install()
        try:
            result = ws.run_pass(cli)
        finally:
            tracer.uninstall()
        tally.check_pass(ws.jobs, result, "traced")
        summary = tracer.summary()
        tracer.reset()
        gap = result["batch"] - summary["self_sum_s"]
        if not 0.0 <= gap <= 0.01 * result["batch"]:
            tally.fail(f"traced self times sum to {summary['self_sum_s']!r} s "
                       f"but the pass took {result['batch']!r} s")
        traced.append((result["batch"], layer_metrics(summary)))
    pairs = list(traced)
    # one whole pass, the median one, so that its self times add up to its batch time
    traced.sort(key=lambda p: p[0])
    batch, metrics = traced[(len(traced) - 1) // 2]
    for command in COMMANDS:
        metrics[f"cli.{command}_s"] = statistics.median(
            command_sums(ws.jobs, p)[command] for p in untraced)
    metrics["cli.batch_cpu_s"] = statistics.median(p["batch_cpu"] for p in untraced)
    metrics["cli.batch_wall_s"] = statistics.median(p["batch"] for p in untraced)
    metrics["trace.batch_s"] = batch
    # each traced pass runs right after an untraced one, so pairs share the host's speed
    metrics["trace.overhead_s"] = statistics.median(
        t - u["batch"] for (t, _), u in zip(pairs, untraced))
    metrics["cli.artifact_bytes"] = sum(len(v) for a in untraced[0]["arts"] for v in a.values())
    metrics["cli.artifacts_changed"] = artifacts_changed(cli, ws, args, untraced[0], base)
    for problem in selftest.run(cli, base / "selftest"):
        tally.fail(f"tracer self-test: {problem}")
    print("# detail " + json.dumps({"untraced_batch_s": timing([p["batch"] for p in untraced]),
                                    "traced_batch_s": timing([b for b, _ in traced])}))
    return metrics


def artifacts_changed(cli, ws: Workspace, args, first_pass: dict, base: Path) -> int:
    """Seed-0 artifacts whose sha256 differs from the recorded golden hashes."""
    golden = json.loads(GOLDEN.read_text())[args.workload]
    if args.seed == 0:
        jobs, result = ws.jobs, first_pass
    else:
        jobs = workloads.build(args.workload, 0)
        result = Workspace(base / "golden", jobs).run_pass(cli)
    changed = 0
    for job, digest in zip(jobs, hashes(result["arts"])):
        want = golden.get(job.name, {})
        changed += sum(digest.get(k) != v for k, v in want.items())
        changed += len(set(digest) - set(want))
    return changed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    cli = load_library(root)
    print("# facts " + json.dumps(machine_facts(root, args)))
    base = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    tally = Tally()
    try:
        ws = Workspace(base, workloads.build(args.workload, args.seed))
        if args.trace:
            values = run_traced(cli, ws, args, tally, base)
        else:
            values = run_untraced(cli, root, ws, args, tally)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / WORK_DIR).rmdir()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(units))} "
                         "are emitted but not declared, or declared but not emitted")
    for problem in tally.problems[:20]:
        print(f"# problem {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
