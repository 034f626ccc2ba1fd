"""What the environment could change, pinned and recorded.

The package reads ``$REPRO_BACKEND``, ``$REPRO_CHECK``, ``$REPRO_JOBS``,
``$REPRO_CACHE_DIR``, ``$REPRO_SCALE`` and a few more at call time.  The
benchmark removes every ``REPRO_*`` variable before it imports the
package, passes the knobs it cares about explicitly, and keeps every
file it writes under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def pin() -> List[str]:
    """Drop every ``REPRO_*`` variable; returns the names dropped."""
    dropped = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in dropped:
        del os.environ[name]
    return dropped


def child_env() -> Dict[str, str]:
    """Environment for the set-up probes: pinned, with ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def have_sources() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def source_digest() -> str:
    """SHA-256 over the package and benchmark sources (paths + bytes)."""
    digest = hashlib.sha256()
    for base in (SRC / "repro", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def record(seed: int, dropped: List[str]) -> Dict[str, object]:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
        "backend": "event",
        "check": False,
        "telemetry": None,
        "jobs": 1,
        "dropped_env": dropped,
    }
