"""Spark session, spans and Spark counters for the benchmark.

Nothing here runs at import: ``run.py`` sets the environment, starts the
session, and hands a :class:`Tracer` to the workload it runs.
"""
from __future__ import annotations

import hashlib
import os
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Spark cores: at most 4, and never more than the machine has.
CORES = min(4, len(os.sched_getaffinity(0)))
DRIVER_MEMORY = "2g"


def spark_settings(partitions_per_core: int) -> dict:
    """Arrow on and broadcast joins off, as in the repository's
    ``conftest.py``; shuffle partitions as the workload asks."""
    return {
        "spark.master": f"local[{CORES}]",
        "spark.driver.memory": DRIVER_MEMORY,
        "spark.sql.shuffle.partitions": str(partitions_per_core * CORES),
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
    }


def prepare_environment(root: Path, scratch: Path) -> None:
    """Point Spark, its Python workers and temp files at the checkout.

    Must run before ``pyspark`` is imported: driver memory and the JVM's
    temp directory are read when the JVM is launched.
    """
    scratch.mkdir(parents=True, exist_ok=True)
    src = str(root / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["SPARK_LOCAL_DIRS"] = str(scratch)
    os.environ["TMPDIR"] = str(scratch)
    java_opts = f"-Djava.io.tmpdir={scratch} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts  # the JVM that builds the command
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory {DRIVER_MEMORY} "
        f"--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        f"--conf spark.ui.showConsoleProgress=false "
        f'--conf "spark.driver.extraJavaOptions={java_opts}" '
        "pyspark-shell"
    )


def start_spark(partitions_per_core: int):
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("perfbench")
    for k, v in spark_settings(partitions_per_core).items():
        b = b.config(k, v)
    # Keep every job and stage of a run visible to the status tracker.
    b = b.config("spark.ui.retainedJobs", "100000").config(
        "spark.ui.retainedStages", "100000"
    )
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait until the JVM it launched has exited."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is None:
        return
    proc.stdin.close()  # the JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _descendants(pid: int) -> list[int]:
    """The processes below ``pid``, read from ``/proc``."""
    children: dict[int, list[int]] = {}
    for d in Path("/proc").iterdir():
        if not d.name.isdigit():
            continue
        try:
            ppid = int((d / "stat").read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # the process has ended
        children.setdefault(ppid, []).append(int(d.name))
    out, todo = [], [pid]
    while todo:
        kids = children.get(todo.pop(), [])
        out += kids
        todo += kids
    return out


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set of a live process, in KiB (0 once it has ended)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_parts() -> dict:
    """Peak resident set, in MiB, of the driver's Python process, of the
    JVM it launched, and of each Python process below the JVM (the worker
    daemon and its workers) still alive."""
    from pyspark import SparkContext

    pid = SparkContext._gateway.proc.pid
    return {
        "python": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jvm": _vm_hwm_kb(pid) / 1024.0,
        "workers": [_vm_hwm_kb(p) / 1024.0 for p in _descendants(pid)],
    }


def provenance(root: Path, workload: dict, seed: int) -> dict:
    """What a result was measured on: code identity, scale and settings."""
    sha = None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == root.resolve():
            sha = out[1]  # only when the checkout is itself the repository
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")) + sorted((root / "jobs").glob("*.py")):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return {
        "git_sha": sha,
        "src_jobs_sha256": h.hexdigest(),
        "workload": workload["name"],
        "params": workload["params"],
        "order_seed": seed,
        "cores": CORES,
        "spark": spark_settings(workload["params"]["partitions_per_core"]),
        "python": sys.version.split()[0],
    }


# --------------------------------------------------------------------------
# Spans and Spark counters
# --------------------------------------------------------------------------
@dataclass
class Span:
    name: str
    parent: str | None
    start: float
    probe: bool = False
    end: float = 0.0
    counters: dict = field(default_factory=dict)
    #: Time spent reading the Spark counters after the span ended.
    counter_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans recorded around calls into each layer, kept in memory.

    Each span runs under its own Spark job group, so its Spark jobs,
    stages and tasks are read back from the status tracker when the span
    ends.
    """

    def __init__(self, sc):
        self.sc = sc
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, probe: bool = False):
        """Time a layer call. A ``probe`` span measures work the job
        itself does not do, and is left out of the tracing overhead."""
        parent = self._stack[-1].name if self._stack else None
        s = Span(name, parent, time.perf_counter(), probe)
        self._stack.append(s)
        self.sc.setJobGroup(name, name)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(s)
            s.counters.update(self.spark_counts(name))
            s.counter_s = time.perf_counter() - s.end
            if parent is not None:
                self.sc.setJobGroup(parent, parent)
            else:
                self.sc.setLocalProperty("spark.jobGroup.id", None)

    def spark_counts(self, group: str) -> dict:
        """Jobs, stages that ran or were skipped, tasks and failed tasks
        of a job group."""
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self.sc.statusTracker()
        stages: set = set()
        jobs = tracker.getJobIdsForGroup(group)
        for j in jobs:
            info = tracker.getJobInfo(j)
            if info is not None:
                stages.update(info.stageIds)
        ran = tasks = failed = 0
        for sid in stages:
            st = tracker.getStageInfo(sid)
            if st is None or st.numCompletedTasks + st.numFailedTasks == 0:
                continue  # skipped: its shuffle output was reused
            ran += 1
            tasks += st.numCompletedTasks
            failed += st.numFailedTasks
        return {"jobs": len(jobs), "stages": ran, "stages_skipped": len(stages) - ran,
                "tasks": tasks, "failed_tasks": failed}

    def get(self, name: str) -> Span:
        for s in self.spans:
            if s.name == name:
                return s
        raise KeyError(name)

    def probe_seconds(self) -> float:
        return sum(s.seconds for s in self.spans if s.probe)

    def self_seconds(self, s: Span) -> float:
        """Span time not covered by its child spans, nor by reading their
        Spark counters."""
        child = sum(c.seconds + c.counter_s for c in self.spans if c.parent == s.name)
        return s.seconds - child

    def report(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "parent": s.parent,
                "seconds": s.seconds,
                "self_seconds": self.self_seconds(s),
                "probe": s.probe,
                "counter_seconds": s.counter_s,
                **s.counters,
            }
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
