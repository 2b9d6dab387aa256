"""Small-size self-test of the benchmark.

Runs each workload's code path over a few hundred objects and requires
every answer to match ``brute_force_asp``, the independent oracle
(exactly at delta = 0, within (1 + delta) otherwise); requires the
answer check to accept those answers and to reject a corrupted one; and
requires the untraced and traced runs to emit exactly the metrics
``BENCHMARK.json`` names, with every wrapped layer that runs on the
workload recording work. Run from the root of a repository checkout:

    python3 perfbench/selftest.py

It exits non-zero on the first failure and takes about three minutes,
most of it Spark.
"""
from __future__ import annotations

import json
import math
import sys

from run import ROOT, SRC, run

sys.path.insert(0, str(SRC))

from repro.core.bruteforce import brute_force_asp  # noqa: E402
from repro.core.reduction import build_asp  # noqa: E402
from workloads import SparkWorkload, check_answer, poisyn_approx, tweet_exact  # noqa: E402

N = 200
#: Query sizes (in q) large enough that regions over 200 objects in the
#: US bounding box hold several objects.
SIZES = (40.0, 120.0, 300.0)
WARMUP = (100.0,)
#: Per-layer metrics that must be positive where the layer runs.
MUST_RUN = {
    "tweet-exact": ("gridindex.gi_ds.self_ms", "reduction.build_asp.calls",
                    "gridindex.build_grid_index.ms", "dssearch.ds_search.calls"),
    "poisyn-approx": ("gridindex.gi_ds.self_ms", "aggregators.prepare.calls",
                      "reduction.overlapping.calls", "dssearch.ds_search.calls"),
    "spark-cold": ("spark.build_grid_index_spark.ms", "spark.edge_accuracies.ms",
                   "spark.jobs", "spark.tasks", "spark.exploded_rows", "spark.scan.ms"),
}


def fail(msg: str) -> None:
    print(f"selftest FAILED: {msg}")
    sys.exit(1)


def check_against_oracle(wl) -> None:
    for q in wl.queries:
        d, region, _ = wl.answer(q)
        d_opt, _ = brute_force_asp(build_asp(wl.objects, wl.F, q.qrep, q.weights, q.a, q.b))
        ok, _, reason = check_answer(wl.objects, wl.F, q, d, region, d_opt, wl.delta)
        if not ok:
            fail(f"{wl.name} {q.k}q against brute force: {reason}")
        if wl.delta == 0 and not math.isclose(d, d_opt, rel_tol=1e-9, abs_tol=1e-9):
            fail(f"{wl.name} {q.k}q: {d} != brute force {d_opt}")
        if d_opt > 0:
            bad, _, _ = check_answer(wl.objects, wl.F, q, d * 2.5, region, d_opt, wl.delta)
            if bad:
                fail(f"{wl.name} {q.k}q: the check accepted a wrong distance")
        print(f"{wl.name} {q.k:g}q: {d!r} vs brute force {d_opt!r} ok")


def check_metrics(wl, spec: dict) -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run(wl, seed=1, seconds=0.0, trace=trace)
        if result["failed"] or not result["correct"]:
            fail(f"{wl.name} trace={int(trace)}: {result['failed']} failed queries")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            fail(f"{wl.name} {key}: missing {sorted(set(want) - set(got))}, "
                 f"unexpected {sorted(set(got) - set(want))}, or units differ")
        if trace:
            idle = [m for m in MUST_RUN[wl.name] if not result["metrics"][m]["value"] > 0]
            if idle:
                fail(f"{wl.name}: traced layers recorded no work: {idle}")
        print(f"{wl.name} trace={int(trace)}: {len(got)} metrics ok")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in (
        tweet_exact(n=N, sizes=SIZES),
        poisyn_approx(n=N, sizes=SIZES),
        SparkWorkload(n=N, sizes=SIZES, warmup_sizes=WARMUP),
    ):
        try:
            wl.setup()
            check_against_oracle(wl)
            check_metrics(wl, spec)
        finally:
            wl.close()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
