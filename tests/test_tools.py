import subprocess
import sys
from pathlib import Path

OP_HASHES = Path(__file__).resolve().parent.parent / "tools" / "op_hashes.py"


def op_hashes(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(OP_HASHES), *args], capture_output=True, text=True, timeout=300)


def test_op_hashes_workload_filter_prints_the_full_runs_lines_of_those_workloads():
    full = op_hashes("--seeds", "1").stdout.splitlines()
    # named out of the bench's order: the lines keep it
    picked = op_hashes("--seeds", "1", "--workloads", "cli-batch", "ray-sweep").stdout.splitlines()
    assert picked == [line for line in full if line.split()[0] in ("ray-sweep", "cli-batch")]
    assert {line.split()[0] for line in full} == {"ray-sweep", "spectral-chain", "cli-batch"}
    assert op_hashes("--workloads", "no-such-workload").returncode == 2
