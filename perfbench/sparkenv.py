"""Local Spark session for the ``spark-cold`` workload.

``local[N]`` with N = the CPUs this process may use (as ``nproc``
counts them), the UI and the console progress bar off, and every
temporary directory inside the benchmark's work directory. The session
settings otherwise mirror ``jobs/_common.make_session``.

The JVM compiles with C1 only (``-XX:TieredStopAtLevel=1``). With the
default tiered compiler the JVM kept speeding up for minutes, by
different amounts in each process: after one warm-up query, the first
timed pass over the batch took 29.5 s in one process and 26.5 s in
another, and the third 21.4 s. With C1 only, the first pass took 22.3 s
and 22.2 s in two processes.
"""
from __future__ import annotations

import os
import subprocess
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def start_session(work_dir: Path):
    tmp = work_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # The applyInPandas workers import repro; they inherit this
    # environment from the JVM, which inherits it from this process.
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = f"{SRC}{os.pathsep}{path}" if path else str(SRC)
    os.environ["TMPDIR"] = str(tmp)
    from pyspark.sql import SparkSession

    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData -XX:TieredStopAtLevel=1"
    spark = (
        SparkSession.builder.master(f"local[{len(os.sched_getaffinity(0))}]")
        .appName("perfbench")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.extraJavaOptions", java_opts)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", str(tmp))
        .config("spark.sql.warehouse.dir", str(work_dir / "warehouse"))
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_gateway(gateway, timeout: float = 60.0) -> None:
    """End the JVM behind a stopped session: it exits when its stdin
    closes. Kill it if it has not ended within ``timeout`` seconds."""
    proc = getattr(gateway, "proc", None)
    if proc is None:
        return
    if proc.stdin is not None:
        proc.stdin.close()
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
