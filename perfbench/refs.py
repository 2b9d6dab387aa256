"""Recompute ``references.json``: the exact optimum of every query of the
driver workloads, from exact GI-DS on an index of another granularity
than the workload's own.

Run from the root of a repository checkout after a change to the
benchmark's inputs (the object tables or the query batches):

    python3 perfbench/refs.py

It takes several minutes, most of it exact GI-DS over 10^6 objects.
The benchmark uses a table entry only while its fingerprint matches the
inputs; otherwise it computes the references itself and caches them.
"""
from __future__ import annotations

import json
import sys
import time

from run import SRC

sys.path.insert(0, str(SRC))

from workloads import REFERENCES, fingerprint, poisyn_approx, tweet_exact  # noqa: E402


def main() -> int:
    table = {}
    for make in (tweet_exact, poisyn_approx):
        wl = make()
        t0 = time.perf_counter()
        optima = [wl.compute_reference(q) for q in wl.queries]
        table[wl.name] = wl.reference_entry(fingerprint(wl.objects, wl.queries), optima)
        print(f"{wl.name}: {len(optima)} references in {time.perf_counter() - t0:.1f} s")
    REFERENCES.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
