"""Every benchmark job prints the bytes recorded in bench/reference.json.

The jobs of bench/run.py's WORKLOADS run in this process through
steen.cli.main, in a copy of bench/inputs and with no STEEN_* variable set,
as the benchmark runs them in fresh processes.  An output change then fails
here, not only in the benchmark.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from steen.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _workloads() -> dict:
    sys.path.insert(0, str(BENCH))  # run.py imports its siblings gates and tracer
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = sys.modules["bench_run"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(BENCH))
    return run.WORKLOADS


JOBS = {f"{name}/{job.name}": job for name, jobs in _workloads().items() for job in jobs}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_job_has_a_reference():
    assert sorted(JOBS) == sorted(REFERENCE)


@pytest.mark.parametrize("job_id", sorted(JOBS))
def test_job_output_matches_reference(job_id, tmp_path, monkeypatch, capsysbinary):
    job, want = JOBS[job_id], REFERENCE[job_id]
    for src in (BENCH / "inputs").iterdir():
        shutil.copyfile(src, tmp_path / src.name)
    monkeypatch.chdir(tmp_path)
    for key in [k for k in os.environ if k.startswith("STEEN_")]:
        monkeypatch.delenv(key)
    assert main(list(job.argv)) == 0
    out, err = capsysbinary.readouterr()
    assert err == b""
    assert _sha256(out) == want["stdout"]
    assert sorted(job.files) == sorted(want["files"])
    for name in job.files:
        assert _sha256((tmp_path / name).read_bytes()) == want["files"][name], name
