"""tools/solve_digest.py, run on each of the benchmark's workloads."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "solve_digest.py"
NO_MASTERS = "masters 0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

DIGESTS = {
    # the search's two LP solves, the estimate's 78 master LPs and one
    # solution file
    "scale-sos2-first": [
        "solutions 2 818f411e0dc41d80277cf810d39301b82b841f971a6728304f42f761467aa51d",
        "masters 78 f86a87efc6f11bcc6c64e92b4543f9704537c04c68aa7d095726d69a2bbffc51",
        "files 1 42b1f0b53efd6e370a6af1329b651b4afad95b50ee5c94596c2a4a5e2cfddc37",
        "instances 1 793ce186765ec11a20a2ee59de4c14f731ab55c75f7d046ba5cee37efd036115",
    ],
    # seven SOS1 trees proved optimal: every node LP and seven files
    "tree-sos1-prove": [
        "solutions 3927 9ff03dd1a1e0f49c5f1e291ea457ba9fe3619d7520198e8aa195ccdace36713d",
        NO_MASTERS,
        "files 7 26eb18f1178ffa67724744a8e8d0e8cac50fad41ea27b10741ebd8538ab8c5a0",
        "instances 7 942df9cb48961916bb101ccbb01ab2a962077f8cd2ec7f5b9169c9ddaeb651b6",
    ],
    # 252 models in five modes: SOS1 and SOS2 branching under all four
    # strategies
    "suite-many-small": [
        "solutions 5499 0621ac9990fbbcae9c349116635bf58481ce9a223e09aa014473cb6d4a2e7d50",
        NO_MASTERS,
        "files 1260 d6bc4adc40c8d8121984a9f26ea119202306268d77d705993592d04a7d7129eb",
        "instances 252 1dccf0a57ba7001a5e711d936c83a3c1092649e7145495c43e66b737abf408d8",
    ],
}


@pytest.mark.parametrize("workload", DIGESTS)
def test_workload_digests(workload):
    done = subprocess.run(
        [sys.executable, str(TOOL), "--workload", workload],
        capture_output=True, text=True, timeout=300, check=True,
    )
    # every answer and every instance file pinned bit for bit
    assert done.stdout.splitlines() == DIGESTS[workload]
