"""Every benchmark job prints the bytes recorded in bench/reference.json.

The jobs of bench/run.py's WORKLOADS run in a copy of bench/inputs, with no
STEEN_* variable set: once in this process through steen.cli.main, and once
as the benchmark runs them, in a fresh process through run.py's RUN_CLI with
no STEEN_* or PYTHON* variable but PYTHONPATH, which also covers what the
process does after main returns.  An output change then fails here, not only
in the benchmark.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from steen.cli import main

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _bench_run():
    sys.path.insert(0, str(BENCH))  # run.py imports its siblings gates and tracer
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = sys.modules["bench_run"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(BENCH))
    return run


RUN = _bench_run()
JOBS = {f"{name}/{job.name}": job for name, jobs in RUN.WORKLOADS.items() for job in jobs}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_job_has_a_reference():
    assert sorted(JOBS) == sorted(REFERENCE)


def _copy_inputs(target: Path) -> None:
    for src in (BENCH / "inputs").iterdir():
        shutil.copyfile(src, target / src.name)


def _assert_reference(job_id: str, out: bytes, err: bytes, cwd: Path) -> None:
    job, want = JOBS[job_id], REFERENCE[job_id]
    assert err == b""
    assert _sha256(out) == want["stdout"]
    assert sorted(job.files) == sorted(want["files"])
    for name in job.files:
        assert _sha256((cwd / name).read_bytes()) == want["files"][name], name


@pytest.mark.parametrize("job_id", sorted(JOBS))
def test_job_output_matches_reference(job_id, tmp_path, monkeypatch, capsysbinary):
    _copy_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    for key in [k for k in os.environ if k.startswith("STEEN_")]:
        monkeypatch.delenv(key)
    assert main(list(JOBS[job_id].argv)) == 0
    out, err = capsysbinary.readouterr()
    _assert_reference(job_id, out, err, tmp_path)


@pytest.mark.parametrize("job_id", sorted(JOBS))
def test_job_output_matches_reference_in_a_fresh_process(job_id, tmp_path):
    _copy_inputs(tmp_path)
    env = {k: v for k, v in os.environ.items() if not k.startswith(("STEEN_", "PYTHON"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, "-c", RUN.RUN_CLI, *JOBS[job_id].argv],
        cwd=tmp_path, env=env, capture_output=True, timeout=120,
    )
    assert done.returncode == 0
    _assert_reference(job_id, done.stdout, done.stderr, tmp_path)
