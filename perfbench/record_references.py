"""Record each workload's instance table into references.json.

    PYTHONPATH=src:perfbench OPENBLAS_NUM_THREADS=1 python3 perfbench/record_references.py

For every workload, at full and smoke size, runs one pass at instance
seeds 0, 1, 2, ... and keeps the first Workload.INSTANCES at which every
output check passes; for noisy_capped it also stores each cell's final
objective and RMSE, which later runs are checked against.  Re-record only
when a change is meant to move these values, and say so.
"""

import itertools
import json
import shutil
from pathlib import Path

from workloads import REFERENCES, WORKLOADS

SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench_out" / "record"


def main():
    refs = {}
    for name, cls in WORKLOADS.items():
        for smoke in (False, True):
            table = []
            for seed in itertools.count():
                workload = cls(None, smoke, instance_seed=seed)
                workload.setup()
                shutil.rmtree(SCRATCH, ignore_errors=True)
                SCRATCH.mkdir(parents=True)
                entry = workload.reference_entry(workload.run(SCRATCH), SCRATCH)
                print(name, "smoke" if smoke else "full", seed,
                      "kept" if entry else "skipped", flush=True)
                if entry:
                    table.append(entry)
                if len(table) == cls.INSTANCES:
                    break
            refs[name + ("_smoke" if smoke else "")] = table
    shutil.rmtree(SCRATCH, ignore_errors=True)
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
