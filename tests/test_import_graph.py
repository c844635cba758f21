"""The import graph stays free of numpy.

Every interpreter, executor worker and serve shard imports the modules
below.  None of them needs numpy, and importing it costs every one of
those processes set-up time and resident memory, so a stray import
must fail here rather than slip back in unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parents[1] / "src"

ENTRY_MODULES = (
    "repro.cli",
    "repro.serve.cli",
    "repro.core.study",
    "repro.core.study_ext",
    "repro.serve.cluster",
    "repro.exec.executor",
)

_CHILD = (
    "import importlib, sys\n"
    f"for name in {ENTRY_MODULES!r}:\n"
    "    importlib.import_module(name)\n"
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
)


def test_entry_points_do_not_import_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT)
    out = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "[]", (
        f"importing {', '.join(ENTRY_MODULES)} pulled in numpy: "
        f"{out.stdout.strip()}"
    )
