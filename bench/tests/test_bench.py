"""Tests of the benchmark itself: tracer transparency, gates, the contract.

    python3 -m pytest -q bench/tests

They spawn steen processes, so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gates  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))

# the cheapest job of each workload that still exercises it
ONE_JOB = {"resolve-A": "sphere", "resolve-An": "joker4", "ledger": "paper", "tour": "chart-svg"}


@pytest.fixture(scope="module")
def prepared():
    return run.prepare()


def _job(workload: str, name: str) -> run.Job:
    return next(job for job in run.WORKLOADS[workload] if job.name == name)


@pytest.mark.parametrize("workload", sorted(ONE_JOB))
def test_traced_output_is_byte_identical(prepared, workload):
    reference, env = prepared
    job = _job(workload, ONE_JOB[workload])
    outputs = []
    for traced in (False, True):
        for name in job.files:
            (run.JOBDIR / name).unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(run.WORK / "spans.bin"), *job.argv]
        else:
            argv = [sys.executable, "-c", run.RUN_CLI, *job.argv]
        _, _, _, code, out, stderr = run.spawn(argv, env)
        assert code == 0, stderr
        files = [(run.JOBDIR / name).read_bytes() for name in job.files]
        outputs.append((out, files))
    assert outputs[0] == outputs[1]
    assert gates.sha256(outputs[0][0]) == reference[f"{workload}/{job.name}"]["stdout"]


def _bindings() -> dict[tuple[str, str], int]:
    from steen.gf2 import Echelon
    from steen.module import FiniteModule

    out = {}
    for mod in tracer._steen_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = id(value)
    for cls in (Echelon, FiniteModule):
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = id(value)
    return out


def test_tracer_rebinds_every_importer_and_restores_them():
    from steen import gf2, milnor, module, resolution

    before = _bindings()
    product, kernel, add = milnor.milnor_product, gf2.kernel, gf2.Echelon.add
    t = tracer.Tracer()
    t.install()
    try:
        for mod in (milnor, resolution, module):
            assert mod.milnor_product is not product
            assert mod.milnor_product.__wrapped__ is product
        assert resolution.kernel.__wrapped__ is kernel
        assert gf2.Echelon.add.__wrapped__ is add
        assert (milnor.sq(1) * milnor.sq(2)) == milnor.sq(3)
        calls = tracer.summarize(_spans_of(t))["milnor.product"]["calls"]
        assert calls == 1
    finally:
        t.uninstall()
    assert _bindings() == before
    assert milnor.milnor_product is product and resolution.kernel is kernel


def _spans_of(t: tracer.Tracer) -> tracer.Spans:
    return tracer.Spans(t.layer_names, t.layers, t.parents, t.starts, t.ends)


def test_self_times_add_up_to_traced_wall(prepared):
    reference, env = prepared
    job = _job("resolve-An", "joker4")
    plain, traced = [], []
    for _ in range(3):
        plain.append(run.run_job("resolve-An", job, reference, env, traced=False))
        traced.append(run.run_job("resolve-An", job, reference, env, traced=True))
    assert not any(j.problems for j in plain + traced)
    overhead = statistics.median(j.wall_s for j in traced) - statistics.median(j.wall_s for j in plain)
    spans = tracer.read_spans(run.WORK / "spans.bin")
    last = traced[-1]
    self_total = sum(row["self_s"] for row in last.layers.values())
    # self times partition the top-level spans exactly ...
    roots = sum(e - s for s, e, p in zip(spans.starts, spans.ends, spans.parents) if p == tracer.ROOT)
    assert self_total == pytest.approx(roots, abs=1e-6)
    # ... and what they leave out of the traced wall time is less than the overhead
    assert 0 < last.wall_s - self_total <= overhead


def test_counts_repeat_exactly(prepared):
    reference, env = prepared
    job = _job("resolve-An", "joker4")
    runs = [run.run_job("resolve-An", job, reference, env, traced=True) for _ in range(2)]
    counts = [
        ({k: v["calls"] for k, v in r.layers.items()}, r.counters) for r in runs
    ]
    assert counts[0] == counts[1]
    assert runs[0].counters["milnor.product_cache.misses"] > 0


def test_corrupted_reference_makes_failed_frac_positive(prepared, capsys):
    reference, env = prepared
    corrupted = json.loads(json.dumps(reference))
    corrupted["tour/list"]["stdout"] = "0" * 64
    runs = run.measure(["tour"], 0, 0.0, False, corrupted, env)
    result = run.report(runs, False, 0, 0.0)
    assert result["failed"] == 1 and result["attempted"] == len(run.WORKLOADS["tour"])
    assert result["correct"] is False
    lines = capsys.readouterr().out.splitlines()
    frac = next(float(line.split()[1]) for line in lines if line.split()[:1] == ["failed_frac"])
    assert frac == pytest.approx(1 / len(run.WORKLOADS["tour"]))


def test_each_pass_is_scaled_by_its_own_yardstick(prepared):
    def one_pass(wall: float, speed: float) -> run.Pass:
        job = run.JobRun("tour/list", wall_s=wall, cpu_s=wall / 2, rss_mb=20.0, problems=[])
        return run.Pass(False, [job], [0.1 * speed], [run.YARDSTICK_NOMINAL_S * speed] * 2)

    runs = {"tour": run.WorkloadRuns("tour", [one_pass(2.0, 2.0), one_pass(3.0, 3.0), one_pass(1.0, 1.0)])}
    metrics = run.report(runs, False, 0, 1.0)["metrics"]
    assert metrics["wall_s"]["value"] == pytest.approx(1.0)
    assert metrics["cpu_s"]["value"] == pytest.approx(0.5)
    assert metrics["setup_s"]["value"] == pytest.approx(0.1)
    assert metrics["peak_rss_mb"]["value"] == 20.0


def test_sphere_gate_rejects_a_wrong_rank():
    s_max, stem_max = 16, 24
    rows = ["   " + "".join(f"{stem:>4}" for stem in range(stem_max + 1))]
    for s in range(s_max, -1, -1):
        cells = [gates.SPHERE_E2.get((stem, s), 0) for stem in range(stem_max + 1)]
        rows.append(f"{s:>3}" + "".join(f"{c if c else '.':>4}" for c in cells))
    good = ("\n".join(rows) + "\n").encode()
    assert gates.check_sphere_chart(good) == []
    bad = good.replace(b"  2   1   .   1", b"  2   1   .   .", 1)
    assert bad != good
    assert gates.check_sphere_chart(bad) == ["E2 rank at (stem 2, s 2) is 0, expected 1"]


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_exits_2_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "tour", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no steen sources" in proc.stderr
