"""Write reference.json: the outputs the benchmark checks table cells and
verdict bounds against.

The file is captured once, from a commit whose Table-2 integers are known to
be right, and then kept fixed. Run from the repository root:

    PYTHONPATH=src python3 bench/capture_reference.py
"""
import json

from gatedesign import bounds

import workloads

# Criterion-1 integers of the paper's Table 2; the capture refuses to write a
# reference that disagrees with them.
PUBLISHED = {
    "master-plain": {2: (57, 62, 65, 68, 88, 136, 171), 64: (168, 226, 282, 336)},
    "bernstein-plain": {2: (69, 75, 80, 83, 107, 166, 209)},
}


def main():
    cells = {}
    for d, t, method in workloads.PLAIN_CELLS + workloads.SYMMETRIC_CELLS:
        s_min, bound = workloads._table_cell(d, t, method)
        cells[workloads.cell_key(d, t, method)] = {"S_min": s_min, "bound_at_S_min": bound}
        print(d, t, method.value, s_min, bound, flush=True)
    for method, rows in PUBLISHED.items():
        for d, values in rows.items():
            got = tuple(cells[f"{d}/{t}/{method}"]["S_min"] for t in workloads.PLAIN_COLUMNS[d])
            if got != values:
                raise SystemExit(f"{method} d={d}: {got} differs from the published {values}")
    verdict_bounds = {}
    for d, t, S, kind, _, _ in workloads.MC_CONFIGS:
        for delta in workloads.MC_DELTAS:
            for method in bounds.methods_for_kind(kind):
                res = bounds.total_bound(d, t, kind, S, delta, method)
                verdict_bounds[workloads.verdict_key(d, t, S, kind, delta, method)] = res.raw
    with open(workloads.REFERENCE, "w") as fh:
        json.dump({"cells": cells, "verdict_bounds": verdict_bounds}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
