"""Print the sha256 of every benchmark operation's result, to show a change keeps each answer's bytes.

Runs each operation of the workloads in ``bench/workloads.py`` once per seed,
with the sources of the checkout this file is in, and prints one line per
operation: workload, seed, operation name and the sha256 of its pickled result
(of its exception's type and message, for an operation that raises).  Inputs
are written under a fixed relative work directory, ``.op_hashes_work``, so CLI
reports that echo a path hash alike in every checkout.  To compare two
versions, run the same file in a checkout of each and diff the outputs:

    python3 tools/op_hashes.py --seeds 1 2 3 4 5 6 7 8 > hashes.txt

``--workloads`` runs only the named workloads (all of them by default), e.g.
``--workloads spectral-chain cli-batch`` for a change that only the grid
engine's callers can see.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pickle
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".op_hashes_work")


def digest(call) -> str:
    try:
        data = pickle.dumps(call(), protocol=5)
    except Exception as exc:  # an operation that raises has its error hashed, not the run stopped
        data = f"raised {type(exc).__name__}: {exc}".encode()
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    os.chdir(ROOT)  # the bench's relative fixture paths and the work directory
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS, default=workloads.WORKLOADS)
    args = parser.parse_args(argv)

    try:
        for workload in (w for w in workloads.WORKLOADS if w in args.workloads):
            for seed in args.seeds:
                for op in workloads.build(workload, seed, WORK / workload):
                    print(workload, seed, op.name, digest(op.call), flush=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
