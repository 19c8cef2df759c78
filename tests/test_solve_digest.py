"""tools/solve_digest.py, run on each of the benchmark's workloads."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "solve_digest.py"
NO_MASTERS = "masters 0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

DIGESTS = {
    # the search's two LP solves, the estimate's 36 master LPs and one
    # solution file
    "scale-sos2-first": [
        "solutions 2 12c8446f50ac9a8d3f60bc692f9df1facfd4d09cc3a6f07dba619cd12ba3dd51",
        "masters 36 0c5dbaee78e0c47d5ed9da76ccd6fb28221789fdd7428ee0bda89df716576045",
        "files 1 4194252d32c7a8f488f9cd977f40405c699efd35ef6daa9ca90f6cdd41e4256a",
        "instances 1 793ce186765ec11a20a2ee59de4c14f731ab55c75f7d046ba5cee37efd036115",
    ],
    # seven SOS1 trees proved optimal: every node LP and seven files
    "tree-sos1-prove": [
        "solutions 3162 cc9b28d3b01e162ec3365e48f79ee6f5133efcf38b6b20e3122240a1c11eec24",
        NO_MASTERS,
        "files 7 242c84ea87a95f2070fe5e3e21d5a3e0a7277e3f7a8b3ea5374cf1845a6d3d8d",
        "instances 7 942df9cb48961916bb101ccbb01ab2a962077f8cd2ec7f5b9169c9ddaeb651b6",
    ],
    # 252 models in five modes: SOS1 and SOS2 branching under all four
    # strategies
    "suite-many-small": [
        "solutions 5109 aa4aa530e457bfe29af1a02f9c55c7bc096904536d18c49e89689b029d8c7e17",
        NO_MASTERS,
        "files 1260 acce526a0cec0586074924d13df205f330af691db8fe82ca5da1ae56c59b07dd",
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


def test_gen_seed_0_is_the_tree_workloads_own():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--gen-seed", "0", "--workload", "tree-sos1-prove"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    assert done.stdout.splitlines() == DIGESTS["tree-sos1-prove"]
