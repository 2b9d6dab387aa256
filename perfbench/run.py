"""ASRS query benchmark: closed loop, one client, answers checked.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload tweet-exact --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``tweet-exact``,
``poisyn-approx`` and ``spark-cold``. A run loads its inputs, sets up
(``setup_s``), then answers whole batches of the workload's queries, each
batch in an order drawn from ``--seed``, until about ``--seconds`` have
passed. Every answer is then checked outside the timed loop.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` answers one
batch, each query once untraced and once with every layer's public
functions wrapped (``tracing.py``), and prints the per-layer metrics,
including the tracing overhead against the untraced answers. The last
line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

END_TO_END_UNITS = {
    "qps": "queries/s",
    "query_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "correct_frac": "fraction",
    "approx_ratio": "ratio",
}
NO_RATIO = 1e9


def answer(wl, i: int, tracer=None, qid: int = 0):
    """Answer query ``i`` of the batch; a failure is recorded, not raised."""
    from workloads import Outcome

    q = wl.queries[i]
    ts = time.perf_counter()
    try:
        if tracer is None:
            d, region, stats = wl.answer(q)
        else:
            with tracer.query(qid):
                d, region, stats = wl.answer(q)
    except Exception:  # a failed query is counted and the run goes on
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        return Outcome(i, time.perf_counter() - ts, error=error)
    return Outcome(i, time.perf_counter() - ts, d, region, stats)


def closed_loop(wl, rng, seconds: float):
    """Answer whole batches, one query after another, each batch in an
    order drawn from ``rng``, while the next batch would end nearer to
    ``seconds`` than stopping now. Returns ``(outcomes, wall_s)``."""
    outcomes = []
    t0 = time.perf_counter()
    while True:
        tb = time.perf_counter()
        outcomes += [answer(wl, int(i)) for i in rng.permutation(len(wl.queries))]
        now = time.perf_counter()
        if now - t0 + (now - tb) / 2 >= seconds:
            return outcomes, now - t0


def check_all(wl, outcomes) -> tuple[int, list[float]]:
    """Failed answers and the ratio of each good answer to its reference."""
    from workloads import check_answer

    optima = wl.references(WORK)
    failed, ratios = 0, []
    for o in outcomes:
        if o.error is not None:
            failed += 1
            continue
        q = wl.queries[o.query]
        ok, ratio, reason = check_answer(
            wl.objects, wl.F, q, o.dist, o.region, optima[o.query], wl.delta
        )
        if ok:
            ratios.append(ratio)
        else:
            failed += 1
            print(f"check failed: {wl.name} query {q.k:.4g}q: {reason}", file=sys.stderr)
    return failed, ratios


def peak_rss_mb() -> float:
    """Peak resident memory of this process (the Spark JVM is not counted)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(wl, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    setup_s = wl.setup()
    rng = np.random.default_rng(seed)
    if trace:
        outcomes, metrics, traced_failed = traced_batch(wl, rng.permutation(len(wl.queries)))
    else:
        outcomes, wall = closed_loop(wl, rng, seconds)
        rss = peak_rss_mb()
    failed, ratios = check_all(wl, outcomes)
    attempted = len(outcomes)
    if trace:
        failed += traced_failed
    else:
        values = {
            "qps": attempted / wall,
            "query_p50_ms": median(o.latency_s for o in outcomes) * 1000.0,
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "correct_frac": (attempted - failed) / attempted,
            # with no good answer, a ratio worse than any real one
            "approx_ratio": sum(ratios) / len(ratios) if ratios else NO_RATIO,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced_batch(wl, order) -> tuple[list, dict, int]:
    """Answer one batch twice per query, untraced and traced, taking the
    two in turn first so that drift and warm caches cancel out.

    Returns the untraced outcomes, the per-layer metrics and the number
    of traced answers that raised. The tracing overhead compares the two
    halves; both count query time only, so the Spark row counts taken
    after a traced query do not show as overhead.
    """
    from layers import layer_metrics
    from tracing import Tracer, patched

    tracer = Tracer()
    plain, traced, counters = [], [], []
    for qid, i in enumerate(int(i) for i in order):
        if qid % 2:
            plain.append(answer(wl, i))
        with patched(tracer, keep_results=("spark.explode_to_candidate_cells",)):
            if qid == 0:
                wl.setup_traced()
            wl.before_query(qid)
            traced.append(answer(wl, i, tracer, qid))
            if traced[-1].error is None:
                counters.append(wl.traced_counters(traced[-1].stats, tracer))
        if not qid % 2:
            plain.append(answer(wl, i))
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.write(WORK / f"spans-{wl.name}.jsonl")
    for name in sorted(tracer.absent):
        print(f"absent: {name} (no longer in the program)")
    metrics = layer_metrics(tracer, counters, qps(traced), qps(plain), SRC)
    return plain, metrics, len(traced) - len(counters)


def qps(outcomes) -> float:
    """Queries per second of query time."""
    return len(outcomes) / sum(o.latency_s for o in outcomes)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC}/repro not found; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    try:
        result = run(wl, args.seed, args.seconds, bool(args.trace))
    finally:
        wl.close()
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} queries {result['attempted']} failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
