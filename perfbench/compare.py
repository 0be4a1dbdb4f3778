#!/usr/bin/env python3
"""Per-loop comparison of two runs of the benchmark.

    python3 perfbench/compare.py BASE.rows.tsv NEW.rows.tsv

Reads the per-unit rows a run writes to `.bench_out/<workload>-seed<n>.rows.tsv`
and prints, for every unit certified in both, the ratio of its time
(new / base), then the geometric mean of those ratios. Units whose
status, II or counters changed are listed separately.
"""

import math
import sys


def rows(path):
    with open(path) as f:
        lines = [line.rstrip("\n").split("\t") for line in f]
    head = lines[0]
    return {r[0]: dict(zip(head, r)) for r in lines[1:]}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = rows(sys.argv[1]), rows(sys.argv[2])
    ratios = []
    for unit in sorted(base.keys() & new.keys()):
        b, n = base[unit], new[unit]
        if (b["status"], n["status"]) != ("certified", "certified"):
            print(f"{unit:<28} {b['status']} -> {n['status']}")
            continue
        if (b["ii"], b["nodes"], b["iters"]) != (n["ii"], n["nodes"], n["iters"]):
            print(f"{unit:<28} II/nodes/iters {b['ii']}/{b['nodes']}/{b['iters']} -> "
                  f"{n['ii']}/{n['nodes']}/{n['iters']}")
        r = float(n["ms"]) / float(b["ms"])
        ratios.append(r)
        print(f"{unit:<28} {float(b['ms']):>10.3f} ms -> {float(n['ms']):>10.3f} ms  x{r:.3f}")
    if ratios:
        geo = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        print(f"geomean new/base over {len(ratios)} unit(s): {geo:.4f}")


if __name__ == "__main__":
    main()
