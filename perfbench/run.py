#!/usr/bin/env python3
"""Layer-by-layer benchmark of the WSD reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload mc-triangle-massive --seed 1 --seconds 10 --trace 0

Workloads: ``mc-triangle-massive``, ``kernel-wedge-light`` and
``stream-triangle-massive`` (see ``workloads.py``). With ``--trace 0`` the
last line of standard output is a JSON object carrying the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a separate,
traced run, and the spans are written under ``perfbench/out/``. Every run
checks the program's outputs outside the timed phases and reports each
comparison as an attempted operation, each mismatch as a failed one.

Spark runs in local mode on at most 4 cores (``local[N]``, N recorded), with
all of its scratch space under ``perfbench/out/work``. ``peak_rss_mb`` is the
peak RSS of this driver process only; the JVM and the Python workers it
starts are not included.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MAX_CORES = 4
WORKLOAD_NAMES = ("mc-triangle-massive", "kernel-wedge-light", "stream-triangle-massive")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size", choices=("bench", "test"), default="bench",
        help="input sizes: harness.config.BENCH (default) or the tiny TEST sizes",
    )
    return ap.parse_args(argv)


def spark_env(work: Path, cores: int) -> None:
    """Configure the Spark JVM before it is launched: local master, driver
    memory, and every scratch directory inside ``work``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "spark-local")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    # Read by every JVM started, the spark-submit launcher's included.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={shlex.quote(str(tmp))} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{cores}]",
            "--driver-memory 2g",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf {shlex.quote('spark.sql.warehouse.dir=' + str(work / 'warehouse'))}",
            "pyspark-shell",
        ]
    )


def stop_spark(spark) -> None:
    """Stop the session, then the JVM it launched, and wait for it to exit."""
    from pyspark import SparkContext

    if spark is not None:
        spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        f = ROOT / ".git" / ref[5:]
        return f.read_text().strip() if f.is_file() else ref[5:]
    return ref


def environment(args, bench) -> dict:
    import numpy
    import pyspark

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "policy_hash": bench.policy_hash,
        "peak_rss_scope": "driver Python process only (JVM and Python workers excluded)",
        "spark_master": "none (no Spark on this workload)",
    }
    if bench.spark is not None:
        env["spark_master"] = bench.spark.sparkContext.master
        env["spark_default_parallelism"] = bench.spark.sparkContext.defaultParallelism
        env["spark_warmup"] = "in the cold set-up repetition (setup.first_s), not the timed phase"
    if "harness.tasks" in bench.layer:
        env["harness_tasks"] = bench.layer["harness.tasks"]
    return env


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources are missing: {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be > 0 and --seed >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cores = min(MAX_CORES, len(os.sched_getaffinity(0)))
    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spark_env(work, cores)

    from workloads import END_TO_END, PER_LAYER, Bench

    bench = Bench(
        args.workload, seed=args.seed, seconds=args.seconds, traced=bool(args.trace),
        size=args.size, work_dir=work, t_start=T_START,
    )
    try:
        bench.run()
        env = environment(args, bench)
    finally:
        stop_spark(bench.spark)
        shutil.rmtree(work, ignore_errors=True)
    bench.e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    units = PER_LAYER if args.trace else END_TO_END
    values = bench.layer if args.trace else bench.e2e
    missing = [m for m in units if m not in values]
    metrics = {m: {"value": float(values.get(m, 0.0)), "unit": u} for m, u in units.items()}
    checks = bench.checks
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "result": result, "info": bench.info, "failures": checks.failures}
    if args.trace:
        record["not_measured"] = missing
        bench.tracer.write(OUT / "results" / f"{tag}-spans.json")
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print("# env " + json.dumps(env))
    for f in checks.failures[:20]:
        print(f"# FAILED {f}")
    if args.trace and missing:
        print(
            "# not measured on this workload (its path does not run these "
            "layers; reported as 0): " + ", ".join(missing)
        )
    print(f"# host reference loop (median of {len(bench.host_ms)}): "
          f"{bench.layer['host.ref_loop_ms']:.3f} ms")
    for m, v in metrics.items():
        print(f"# {m} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
