"""Benchmark for the steen command line: fresh-process jobs, closed loop.

    python3 bench/run.py --workload resolve-A --seed 1 --seconds 20 --trace 0

Each job is a fresh ``steen`` process, run one at a time by a single client
that starts the next job only when the previous one has exited.  A pass runs
every job of a workload once, in an order drawn from the seed.  Passes repeat
until ``--seconds`` have gone by, and each metric is the median over passes.
Every job's output is checked (see ``gates.py``); a job that exits non-zero,
prints other bytes than the recorded reference or fails a gate counts as
failed.

With ``--trace 0`` the run reports the end-to-end metrics.  With ``--trace 1``
it alternates plain and traced passes (``tracer.py``) and reports the
per-layer metrics.  ``--workload all`` interleaves every workload, in an order
drawn from the seed, and prints one table per workload.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is run from ``src/``
next to this directory; the benchmark exits with code 2 when it is missing.
Scratch files go to ``.bench_work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from gates import check_ledger, check_nonrealizable, check_sphere_chart, sha256
from tracer import read_spans, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
JOBDIR = WORK / "jobs"
REFERENCE = BENCH / "reference.json"

SETUP_PROBES_PER_PASS = 3
# Seconds one yardstick sample takes on a host at nominal speed; about its
# time in a fast spell on the 2-vCPU Xeon virtual machine of the baseline.
YARDSTICK_NOMINAL_S = 0.0025
JOB_TIMEOUT_S = 120
RUN_CLI = "import sys; from steen.cli import main; sys.exit(main())"
IMPORT_CLI = "import steen.cli"


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    files: tuple[str, ...] = ()  # files the job writes, relative to its cwd
    check: Callable[[bytes], list[str]] | None = None


def _obstruction(n: int) -> Job:
    return Job(f"obstruction-{n}", ("obstruction", str(n)), check=check_nonrealizable)


WORKLOADS: dict[str, tuple[Job, ...]] = {
    "resolve-A": (
        Job(
            "sphere",
            ("chart", "sphere.mod", "--algebra", "A", "--smax", "16", "--tmax", "40"),
            check=check_sphere_chart,
        ),
    ),
    "resolve-An": (
        Job("joker3", ("chart", "joker(3)")),
        Job("joker4", ("chart", "joker(4)", "--smax", "3", "--tmax", "40")),
    ),
    "ledger": (Job("paper", ("verify-suite", "paper"), check=check_ledger),),
    "tour": (
        Job("list", ("list",)),
        Job("show", ("show", "joker")),
        Job("dual", ("dual", "joker")),
        Job("double", ("double", "joker", "1")),
        Job("tensor", ("tensor", "w2", "w0")),
        Job("resolve", ("resolve", "joker", "--smax", "3", "--tmax", "12")),
        Job("chart", ("chart", "joker", "--smax", "4", "--tmax", "14")),
        Job(
            "chart-svg",
            ("chart", "joker0", "--algebra", "A", "--smax", "6", "--tmax", "20",
             "--format", "svg", "--out", "j.svg"),
            files=("j.svg",),
        ),
        Job("unstable-bso3", ("unstable", "bso3")),
        Job("unstable-bsu3", ("unstable", "bsu3")),
        _obstruction(4),
        _obstruction(12),
        Job("validate", ("validate", "jokerP1.mod")),
    ),
}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

# (name, unit); BENCHMARK.json lists the same metrics in the same order.
PER_LAYER = (
    ("gf2.echelon.calls", "count"),
    ("gf2.echelon.self_s", "s"),
    ("gf2.kernel.calls", "count"),
    ("gf2.kernel.self_s", "s"),
    ("gf2.kernel.vectors", "count"),
    ("milnor.product.calls", "count"),
    ("milnor.product.self_s", "s"),
    ("milnor.product_cache.hits", "count"),
    ("milnor.product_cache.misses", "count"),
    ("milnor.product_cache.hit_ratio", "ratio"),
    ("milnor.basis_count.calls", "count"),
    ("milnor.basis_count.self_s", "s"),
    ("milnor.enumerate_basis.self_s", "s"),
    ("milnor.antipode.self_s", "s"),
    ("milnor.expansion_cache.misses", "count"),
    ("module.act.calls", "count"),
    ("module.act.self_s", "s"),
    ("module.validate.self_s", "s"),
    ("module.cyclic_quotient.self_s", "s"),
    ("module.find_isomorphism.calls", "count"),
    ("module.find_isomorphism.self_s", "s"),
    ("module.extension_enumerate.self_s", "s"),
    ("module.construct.self_s", "s"),
    ("resolution.resolve.self_s", "s"),
    ("resolution.resolve.total_s", "s"),
    ("resolution.generators", "count"),
    ("resolution.columns", "count"),
    ("resolution.new_gen_ratio", "ratio"),
    ("resolution.checks.self_s", "s"),
    ("resolution.render.self_s", "s"),
    ("catalogue.builds", "count"),
    ("catalogue.build.total_s", "s"),
    ("obstruction.report.total_s", "s"),
    ("unstable.quotient.total_s", "s"),
    ("unstable.compare.total_s", "s"),
    ("modfile.load.total_s", "s"),
    ("modfile.serialize.total_s", "s"),
    *(
        (f"verify.{slug}.total_s", "s")
        for slug in (
            "antipode", "duality", "doubling", "presentations", "sphere-chart",
            "detection", "wall-relation", "extensions", "unstable",
            "tensor-cells", "coaction", "obstruction", "properties",
        )
    ),
    ("cli.import_s", "s"),
    ("trace.overhead_s", "s"),
)


class SetupError(Exception):
    """The checkout cannot run the benchmark; exit 2 without a result."""


# -- one job -----------------------------------------------------------------


@dataclass
class JobRun:
    job_id: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list[str]
    layers: dict[str, dict[str, float]] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("STEEN_", "PYTHON"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def _on_alarm(signum, frame):
    raise TimeoutError


def spawn(argv: list[str], env: dict[str, str]) -> tuple[float, float, float, int, bytes, str]:
    """Run one process to completion: wall, cpu, max RSS (MB), exit code, stdout, stderr."""
    errpath = WORK / "stderr.txt"
    with open(errpath, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=JOBDIR, env=env, stdout=subprocess.PIPE, stderr=err)
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(JOB_TIMEOUT_S)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            out = b""
        finally:
            signal.alarm(0)
            proc.stdout.close()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = errpath.read_text(errors="replace")
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024, proc.returncode, out, stderr


def run_job(workload: str, job: Job, reference: dict, env: dict[str, str], traced: bool) -> JobRun:
    job_id = f"{workload}/{job.name}"
    for name in job.files:
        (JOBDIR / name).unlink(missing_ok=True)
    spans_path = WORK / "spans.bin"
    if traced:
        spans_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), *job.argv]
    else:
        argv = [sys.executable, "-c", RUN_CLI, *job.argv]
    wall, cpu, rss, code, out, stderr = spawn(argv, env)
    run = JobRun(job_id, wall, cpu, rss, [])
    want = reference.get(job_id)
    if code != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        run.problems.append(f"exit code {code}: {tail[0]}")
    if want is None:
        run.problems.append("no reference digest")
    elif sha256(out) != want["stdout"]:
        run.problems.append("stdout differs from the reference")
    if job.check is not None:
        run.problems += job.check(out)
    for name in job.files:
        path = JOBDIR / name
        if not path.is_file():
            run.problems.append(f"{name} was not written")
        elif want is not None and sha256(path.read_bytes()) != want["files"].get(name):
            run.problems.append(f"{name} differs from the reference")
    if traced and code == 0:
        spans = read_spans(spans_path)
        run.layers = summarize(spans)
        run.counters = spans.counters
    return run


# -- passes and metrics --------------------------------------------------------


def yardstick() -> float:
    """Seconds for a fixed piece of interpreter-bound work, run in this process.

    The loop mixes what steen's hot paths do (tuple keys, dict updates,
    big-int xor, small frozensets) and uses no steen code, so its time tracks
    how fast the host runs Python right now and nothing else.
    """
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(4000):
        key = (i & 31, i % 7)
        table[key] = table.get(key, 0) ^ (1 << (i & 63))
        acc ^= len(frozenset((i & 15, key)))
    return time.perf_counter() - start


@dataclass
class Pass:
    traced: bool
    jobs: list[JobRun]
    setup: list[float]  # import probes run right after the pass
    yardstick: list[float]  # samples from just before the pass to its end

    @property
    def host_factor(self) -> float:
        """Nominal over measured host speed while the pass ran."""
        return YARDSTICK_NOMINAL_S / statistics.fmean(self.yardstick)

    @property
    def wall_s(self) -> float:
        return sum(j.wall_s for j in self.jobs)

    @property
    def cpu_s(self) -> float:
        return sum(j.cpu_s for j in self.jobs)

    @property
    def peak_rss_mb(self) -> float:
        return max(j.rss_mb for j in self.jobs)

    def layer(self, name: str, key: str) -> float:
        return sum(j.layers.get(name, {}).get(key, 0) for j in self.jobs)

    def counter(self, name: str) -> int:
        return sum(j.counters.get(name, 0) for j in self.jobs)


@dataclass
class WorkloadRuns:
    name: str
    passes: list[Pass] = field(default_factory=list)

    def of(self, traced: bool) -> list[Pass]:
        return [p for p in self.passes if p.traced == traced]

    @property
    def attempted(self) -> int:
        return sum(len(p.jobs) for p in self.passes)

    @property
    def failures(self) -> list[JobRun]:
        return [j for p in self.passes for j in p.jobs if j.problems]


def end_to_end(runs: WorkloadRuns, scaled: bool = True) -> dict[str, float]:
    """Medians over the plain passes, each time scaled by its pass's host factor."""
    plain = runs.of(False)

    def k(p: Pass) -> float:
        return p.host_factor if scaled else 1.0

    return {
        "wall_s": statistics.median(p.wall_s * k(p) for p in plain),
        "cpu_s": statistics.median(p.cpu_s * k(p) for p in plain),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
        "setup_s": statistics.median(t * k(p) for p in plain for t in p.setup),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(runs: WorkloadRuns, scaled: bool = True) -> dict[str, float]:
    """Medians over the traced passes; times scaled like end_to_end's."""
    traced = [p for p in runs.of(True) if not any(j.problems for j in p.jobs)]
    if not traced:
        return {}

    def k(p: Pass) -> float:
        return p.host_factor if scaled else 1.0

    out: dict[str, float] = {}
    for name, unit in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if name == "trace.overhead_s":
            plain = statistics.median(p.wall_s * k(p) for p in runs.of(False))
            values = [p.wall_s * k(p) - plain for p in traced]
        elif name == "cli.import_s":
            values = [p.layer("cli.import", "self_s") * k(p) for p in traced]
        elif name == "milnor.product_cache.hit_ratio":
            values = [
                _ratio(p.counter(f"{layer}.hits"), p.counter(f"{layer}.hits") + p.counter(f"{layer}.misses"))
                for p in traced
            ]
        elif name == "resolution.new_gen_ratio":
            values = [
                _ratio(p.counter("resolution.generators"), p.counter("gf2.kernel.vectors"))
                for p in traced
            ]
        elif kind in ("calls", "self_s", "total_s"):
            values = [p.layer(layer, kind) * (k(p) if unit == "s" else 1) for p in traced]
        else:
            values = [p.counter(name) for p in traced]
        if unit != "s" and len(set(values)) > 1:
            print(f"warning: {runs.name} {name} differs between traced passes: {values}", file=sys.stderr)
        out[name] = statistics.median_low(values) if unit == "count" else float(statistics.median(values))
    return out




def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def prepare() -> tuple[dict, dict[str, str]]:
    """Check the checkout, lay out the work directory, warm the bytecode cache."""
    if not (SRC / "steen" / "cli.py").is_file():
        raise SetupError(f"no steen sources under {SRC}")
    reference = json.loads(REFERENCE.read_text())
    JOBDIR.mkdir(parents=True, exist_ok=True)
    for src in (BENCH / "inputs").iterdir():
        shutil.copyfile(src, JOBDIR / src.name)
    env = _child_env()
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_CLI + "; print(steen.cli.__file__)"],
        cwd=JOBDIR, env=env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
    )
    if probe.returncode != 0:
        raise SetupError(f"cannot import steen.cli: {probe.stderr.strip()[-300:]}")
    origin = Path(probe.stdout.strip()).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"steen.cli imported from {origin}, not from {SRC}")
    return reference, env


def setup_probe(env: dict[str, str]) -> float:
    """Seconds for a fresh interpreter to import steen.cli and exit."""
    wall, _, _, code, _, stderr = spawn([sys.executable, "-c", IMPORT_CLI], env)
    if code != 0:
        raise SetupError(f"import probe failed: {stderr.strip()[-300:]}")
    return wall


def measure(names: list[str], seed: int, seconds: float, trace: bool, reference: dict,
            env: dict[str, str]) -> dict[str, WorkloadRuns]:
    rng = random.Random(seed)
    runs = {name: WorkloadRuns(name) for name in names}
    deadline = time.perf_counter() + seconds
    before = yardstick()
    while True:
        order = list(names)
        rng.shuffle(order)
        for name in order:
            # with tracing, plain and traced passes alternate, plain first
            traced = trace and len(runs[name].of(False)) > len(runs[name].of(True))
            jobs = list(WORKLOADS[name])
            rng.shuffle(jobs)
            # the host's speed drifts within seconds, so it is sampled after
            # every process, and each pass is scaled by its own samples
            done, setup, samples = [], [], [before]
            for job in jobs:
                done.append(run_job(name, job, reference, env, traced))
                samples.append(yardstick())
            if not trace:
                for _ in range(SETUP_PROBES_PER_PASS):
                    setup.append(setup_probe(env))
                    samples.append(yardstick())
            runs[name].passes.append(Pass(traced, done, setup, samples))
            before = samples[-1]
        enough = all(len(r.passes) >= (2 if trace else 1) for r in runs.values())
        if enough and time.perf_counter() >= deadline:
            return runs


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(runs: dict[str, WorkloadRuns], trace: bool, seed: int, seconds: float) -> dict:
    units = dict(PER_LAYER if trace else END_TO_END)
    metrics_of = per_layer if trace else end_to_end
    attempted = sum(r.attempted for r in runs.values())
    failures = [j for r in runs.values() for j in r.failures]
    metrics: dict[str, dict] = {}
    measured: dict[str, float] = {}
    for name, r in runs.items():
        values, unscaled = metrics_of(r), metrics_of(r, scaled=False)
        frac = len(r.failures) / r.attempted
        factors = [p.host_factor for p in r.passes]
        print(f"workload {name}: {len(r.of(trace))} {'traced ' if trace else ''}passes, "
              f"{r.attempted} jobs attempted, host factor {_fmt(min(factors))}"
              f"..{_fmt(max(factors))}")
        for metric, value in values.items():
            key = metric if len(runs) == 1 else f"{name}.{metric}"
            unit = units[metric]
            note = f"  (measured {_fmt(unscaled[metric])})" if unit == "s" else ""
            print(f"  {metric:<36} {_fmt(value):>12} {unit}{note}")
            metrics[key] = {"value": value, "unit": unit}
            measured[key] = unscaled[metric]
        print(f"  {'failed_frac':<36} {_fmt(frac):>12} 1")
    for job in failures[:10]:
        print(f"FAILED {job.job_id}: {'; '.join(job.problems[:3])}", file=sys.stderr)
    record = {
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    print("run: " + " ".join(f"{k}={v}" for k, v in record.items()))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    passes = {
        name: [
            {"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s, "setup_s": p.setup,
             "yardstick_s": p.yardstick}
            for p in r.passes
        ]
        for name, r in runs.items()
    }
    detail = {"measured": measured, "passes": passes}
    (WORK / "last_run.json").write_text(json.dumps({**record, **result, **detail}, indent=1) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reference, env = prepare()
        runs = measure(names, args.seed, args.seconds, bool(args.trace), reference, env)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result = report(runs, bool(args.trace), args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
