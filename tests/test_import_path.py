"""The command line starts without the heavy standard-library modules.

Each case runs a fresh interpreter with -S, so that no site-packages .pth
file can load a module before steen does, and with PYTHONPATH=src.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("dataclasses", "inspect", "json")


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_list_and_show_import_no_heavy_modules():
    out = _run(
        "import sys\n"
        "from steen.cli import main\n"
        "assert main(['list']) == 0\n"
        "assert main(['show', 'joker']) == 0\n"
        f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    assert out.splitlines()[0] == "joker"
    assert out.splitlines()[-1] == "[]"


def test_a_json_module_file_still_parses():
    path = ROOT / "tests" / "fixtures" / "joker0.json"
    out = _run(
        "import sys\n"
        "from steen.cli import main\n"
        f"assert main(['show', {str(path)!r}]) == 0\n"
        "print('json' in sys.modules)\n"
    )
    expected = (ROOT / "tests" / "fixtures" / "joker0.mod").read_text()
    assert out == expected + "True\n"
