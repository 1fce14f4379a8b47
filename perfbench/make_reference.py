"""Write reference/estimates.json: the per_order rows of the five estimate
scans of the estimates workload, which its check compares against.

Run from the repository root: ``python3 perfbench/make_reference.py``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import vilenkin as V  # noqa: E402
from workloads import ESTIMATES_CONFIG, REFERENCE, estimate_ops  # noqa: E402


def main() -> None:
    structure = V.make_structure(*ESTIMATES_CONFIG)
    rows = {}
    for op in estimate_ops():
        name, diagonal = op.params
        rows[op.label] = V.estimate_scan(structure, name, include_diagonal_shift=diagonal).per_order
    payload = {"radices": list(structure.radices), "rows": rows}
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
