"""tools/solve_digest.py, run on the benchmark's scale workload."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "solve_digest.py"


def test_scale_workload_digests():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "scale-sos2-first"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    # the search's two LP solves, the estimate's 78 master LPs and one
    # solution file, each pinned bit for bit
    assert done.stdout.splitlines() == [
        "solutions 2 818f411e0dc41d80277cf810d39301b82b841f971a6728304f42f761467aa51d",
        "masters 78 f86a87efc6f11bcc6c64e92b4543f9704537c04c68aa7d095726d69a2bbffc51",
        "files 1 42b1f0b53efd6e370a6af1329b651b4afad95b50ee5c94596c2a4a5e2cfddc37",
    ]
