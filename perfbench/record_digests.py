"""Record the output digests that every benchmark run is compared against.

    PYTHONPATH=src python3 perfbench/record_digests.py FIRST_SEED LAST_SEED

Runs one pass of every workload for each seed in the range, through the same
path as the benchmark runs, and stores the sha256 of every operation's output
in ``perfbench/digests.json``. Rerun it only for a change that is meant to
alter output bytes.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import child
import workloads


def main(argv: list[str]) -> int:
    first, last = (int(a) for a in argv)
    table = json.loads(child.DIGESTS.read_text())
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for workload in workloads.WORKLOADS:
            for seed in range(first, last + 1):
                work = Path(tmp) / workload
                child._setup(workload, seed, work / "inputs", "full")
                cmds = workloads.commands(workload, work / "inputs", work / "out")
                done = child.Pass(workload, cmds, traced=False)
                errors = [f"{op.op_id}: {op.error}" for op in done.ops if op.error]
                if errors:
                    print(f"{workload} seed {seed}: " + "; ".join(errors), file=sys.stderr)
                    return 1
                table.setdefault(workload, {})[str(seed)] = {op.op_id: op.digest for op in done.ops}
                shutil.rmtree(work)
                print(f"{workload} seed {seed}: {len(done.ops)} operations", flush=True)
    child.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
