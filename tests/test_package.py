"""The package holds only code that the program runs.

Reference models that only tests use (the cycle-level DRAM controller,
the NDP command executor) live beside their tests under ``tests/``.
This pins that every module under ``src/repro`` is imported by one of
the program's entry points.  The check runs in a fresh interpreter: in
process, the imports of other tests would hide an orphan.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: the package, its facade and the three command-line entry points
ENTRY_POINTS = (
    "repro",
    "repro.api",
    "repro.experiments.__main__",
    "repro.planner.cli",
    "repro.telemetry.watch",
)

_SCRIPT = """
import importlib, json, sys
for name in {entry_points!r}:
    importlib.import_module(name)
print(json.dumps(sorted(sys.modules)))
"""


def package_modules() -> set[str]:
    """Dotted names of every module and package under ``src/repro``."""
    names = set()
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.add(".".join(parts))
    return names


def test_every_module_is_imported_by_the_program():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(entry_points=ENTRY_POINTS)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    imported = set(json.loads(done.stdout))
    orphans = sorted(package_modules() - imported)
    assert not orphans, f"modules no entry point imports: {orphans}"
