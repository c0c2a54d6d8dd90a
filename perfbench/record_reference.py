"""Record reference.json: every workload's output table at the current code.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/record_reference.py

Run from the repository root.  The tables are independent of the seed, and
of the thread count: each sweep member is solved the same way on any
thread.  Re-record only when a change is meant to alter the solutions, and
say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main():
    reference = {}
    for wl in workloads.WORKLOADS.values():
        os.makedirs(OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            outcome = workloads.run(workloads.Inputs(wl, 0, workdir))
        reference[wl.name] = {"columns": outcome.columns,
                              "rows": outcome.rows}
        print(f"{wl.name}: {len(outcome.rows)} rows")
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write(format_reference(reference))


def format_reference(reference):
    """JSON with one table row per line."""
    parts = []
    for name, table in reference.items():
        rows = ",\n    ".join(json.dumps(row) for row in table["rows"])
        parts.append(f'  {json.dumps(name)}: {{\n'
                     f'   "columns": {json.dumps(table["columns"])},\n'
                     f'   "rows": [\n    {rows}]}}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    main()
