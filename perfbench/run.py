"""End-to-end benchmark of ``explain_relation``: a Spark DataFrame in, ranked
segments out. See DESIGN.md in this directory for the metrics and workloads.

Run from the repository root:

    python3 perfbench/run.py --workload liquor-opt --seed 1 --seconds 20 --trace 0

One run = one workload in one Python process with one local Spark session:

1. Set-up (``setup_s``): start Spark, generate the seeded relation and cache
   it, then make the ``WARMUP_CALLS`` warm-up calls that pay for JVM code
   generation and for starting the Spark Python workers.
2. Timed calls (closed loop, one caller): repeat the query until
   ``--seconds`` have passed and at least ``MIN_CALLS`` calls were made.
3. With ``--trace 1``, half the time goes to untraced calls and half to calls
   with the layer wrappers of ``layers.py`` installed; the run reports
   per-layer medians instead of the end-to-end metrics and writes the spans
   to ``perfbench/out/trace-<workload>-<seed>.json``.

Every call, warm-up included, goes through the correctness gate
(``gate.py``); a call that raises or fails the gate counts as failed. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every call passed the gate.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import procs

# Calls made in set-up: the first pays for JVM code generation and for
# starting the Spark Python workers (about 2x a warm call), the second is
# still about 10% slow; from the third on, calls are steady.
WARMUP_CALLS = 2
# Timed calls per run, whatever --seconds says. Peak RSS is sampled over
# exactly these first calls, because this process's RSS grows with every call.
MIN_CALLS = 3
TRACE_MIN_CALLS = 2  # per loop of a traced run (untraced, then traced)
# A fixed-size heap (-Xms = -Xmx) keeps JVM RSS from drifting with heap resizing.
DRIVER_MEMORY = "1g"
MAX_ERRORS_SHOWN = 5

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
TMP_DIR = OUT_DIR / "tmp"


def _args(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help='a workload name, or "all"')
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _spark_env(threads: int) -> None:
    """Environment the Spark JVM and its Python workers inherit. Must be set
    before the JVM starts: JVM options are read at launch.

    spark-submit splits its argument strings on spaces, so paths handed to
    the JVM are relative to the repository root, the working directory of
    the JVM: the checkout's own path may hold spaces."""
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    tmp = TMP_DIR.relative_to(ROOT).as_posix()
    src = str(ROOT / "src")
    # Python workers import ``repro`` when they unpickle the CA closure.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(TMP_DIR)
    # spark-submit first runs a launcher JVM; keep it out of /tmp as well.
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{threads}] --driver-memory {DRIVER_MEMORY} "
        f"--conf 'spark.driver.extraJavaOptions=-Xms{DRIVER_MEMORY} -XX:-UsePerfData -Djava.io.tmpdir={tmp}' "
        "--conf spark.driver.host=127.0.0.1 pyspark-shell"
    )


def _start_spark(threads: int):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", str(threads))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.session.timeZone", "UTC")
        .config("spark.local.dir", TMP_DIR.relative_to(ROOT).as_posix())
        .config("spark.sql.warehouse.dir", (TMP_DIR / "warehouse").relative_to(ROOT).as_posix())
        .config("spark.executorEnv.PYTHONPATH", os.environ["PYTHONPATH"])
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_spark(spark) -> None:
    """Stop Spark, then wait until the JVM and every Python worker it forked
    have exited."""
    from pyspark import SparkContext

    kids = set(procs.descendants(os.getpid()))
    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits on EOF of its stdin
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    left = procs.wait_gone(kids, timeout_s=60)
    if left:
        print(f"perfbench: killed lingering processes {sorted(left)}", file=sys.stderr)


class Runner:
    """Makes gated calls and keeps the run's attempt/failure counts."""

    def __init__(self, call: Callable, gate) -> None:
        self.call = call
        self.gate = gate
        self.attempted = 0
        self.failed = 0

    def once(self) -> Tuple[float, object]:
        """(wall seconds, result or None). The gate runs outside the timing."""
        self.attempted += 1
        t = time.perf_counter()
        try:
            res = self.call()
        except Exception:
            dt = time.perf_counter() - t
            self.failed += 1
            print(f"perfbench: call {self.attempted} raised", file=sys.stderr)
            traceback.print_exc()
            return dt, None
        dt = time.perf_counter() - t
        print(f"perfbench: call {self.attempted} took {dt:.3f} s", file=sys.stderr)
        errors = self.gate.check(res)
        if errors:
            self.failed += 1
            for e in errors[:MAX_ERRORS_SHOWN]:
                print(f"perfbench: call {self.attempted} failed: {e}", file=sys.stderr)
            if len(errors) > MAX_ERRORS_SHOWN:
                print(f"perfbench: ... and {len(errors) - MAX_ERRORS_SHOWN} more", file=sys.stderr)
        return dt, res


def _log(what: str, since: float) -> None:
    print(f"perfbench: {what} after {time.perf_counter() - since:.3f} s", file=sys.stderr)


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _loop(runner: Runner, seconds: float, min_calls: int) -> List[Tuple[float, object]]:
    """Closed loop: call until ``seconds`` passed and ``min_calls`` were made."""
    out: List[Tuple[float, object]] = []
    start = time.perf_counter()
    while len(out) < min_calls or time.perf_counter() - start < seconds:
        out.append(runner.once())
    return out


def _measure(
    args: argparse.Namespace, t_setup: float
) -> Tuple[int, int, Dict[str, Dict[str, object]]]:
    """Run one workload; set-up is timed from ``t_setup``. Returns
    (attempted, failed, metrics)."""
    # One core stays free for this process's own Python work (object lists,
    # sketch phase I, costs), which runs while Spark tasks hold the others.
    threads = max(1, min(4, len(os.sched_getaffinity(0))) - 1)
    _spark_env(threads)

    import layers
    import workloads
    from gate import Gate

    spark = _start_spark(threads)
    _log("spark session up", t_setup)
    prepared = None
    try:
        prepared = workloads.WORKLOADS[args.workload](spark, args.seed)
        _log("input cached", t_setup)
        runner = Runner(prepared.call, Gate(prepared))
        for _ in range(WARMUP_CALLS):
            runner.once()
        setup_s = time.perf_counter() - t_setup

        if not args.trace:
            start = time.perf_counter()
            with procs.PeakRss() as rss:
                timed = _loop(runner, 0.0, MIN_CALLS)
            timed += _loop(runner, args.seconds - (time.perf_counter() - start), 0)
            results = [res for _, res in timed if res is not None]
            metrics = {
                "explain_s": _metric(statistics.median(dt for dt, _ in timed), "s"),
                "setup_s": _metric(setup_s, "s"),
                # 0 only when every call raised; the run then reports failure.
                "total_variance": _metric(
                    statistics.median(r.total_variance for r in results) if results else 0.0,
                    "objective",
                ),
                "peak_rss_mb": _metric(rss.peak_mb, "MB"),
                "ok_rate": _metric(1.0 - runner.failed / runner.attempted, "fraction"),
            }
            return runner.attempted, runner.failed, metrics

        # Traced run: half the time untraced (the overhead baseline), half
        # with the layer wrappers installed.
        untraced = _loop(runner, args.seconds / 2, TRACE_MIN_CALLS)
        tracer = layers.Tracer()
        runner.call = tracer.traced(prepared.call)
        tracer.install()
        try:
            traced = _loop(runner, args.seconds / 2, TRACE_MIN_CALLS)
        finally:
            tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace-{args.workload}-{args.seed}.json", "w") as f:
            json.dump(tracer.dump(), f)
        per_call = [
            layers.call_metrics(
                [s for s in tracer.spans if s.call == call_id], len(res.positions)
            )
            for call_id, (_, res) in enumerate(traced)
            if res is not None
        ]
        values = {
            k: float(statistics.median(m[k] for m in per_call)) if per_call else 0.0
            for k in layers.UNITS
            if k != "trace.overhead_s"
        }
        values["trace.overhead_s"] = statistics.median(
            dt for dt, _ in traced
        ) - statistics.median(dt for dt, _ in untraced)
        metrics = {k: _metric(values[k], u) for k, u in layers.UNITS.items()}
        return runner.attempted, runner.failed, metrics
    finally:
        if prepared is not None:
            prepared.close()
        _stop_spark(spark)


def _all(args: argparse.Namespace, names: List[str]) -> int:
    """Every workload, each in its own Python process (its own JVM); the
    final JSON line merges them with metric names prefixed by workload."""
    attempted = failed = 0
    metrics: Dict[str, Dict[str, object]] = {}
    for w in names:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", w, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {w} printed no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _args(argv)
    t_setup = time.perf_counter()
    os.chdir(ROOT)
    if not (ROOT / "src" / "repro" / "core" / "pipeline.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _all(args, list(workloads.WORKLOADS))
    attempted, failed, metrics = _measure(args, t_setup)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_rate = {failed / attempted:.6g} ({failed} of {attempted} calls)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
