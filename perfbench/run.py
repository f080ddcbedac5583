#!/usr/bin/env python3
"""Wall-clock benchmark of the G2Miner engines on Spark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload motif4-lj --seed 1 --seconds 12 --trace 0

Builds the program's main sources together with the benchmark (sbt, in
perfbench/) into .bench_build/ when they changed since the last build, then
runs one benchmark JVM. Its standard output ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Workloads: motif4-lj, clique-sl-mix, fsm3-mi (see BENCHMARK.json).
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
JVM_HEAP = "1g"
# G1 learns when to start a concurrent cycle from the run so far; in some
# runs it learns a low threshold, after which every large array (a graph
# broadcast, a task batch) starts a cycle, and the run's passes take a
# fifth more CPU and show three times the post-GC heap. A fixed threshold
# (the default 45 % of the heap) gives every run the same collector.
JVM_GC = ["-XX:-G1UseAdaptiveIHOP"]
MAIN_CLASS = "repro.perfbench.Main"

# Spark 4 on JDK 17 needs the module system opened as spark-submit does.
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_inputs():
    """Every file whose change requires a rebuild."""
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in (PROGRAM_SOURCES, os.path.join(HERE, "src", "main")):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def fingerprint():
    h = hashlib.sha256()
    for f in build_inputs():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars") if home else None
    if not jars or not os.path.isdir(jars):
        fail("cannot find Spark's jars: set SPARK_HOME")
    return jars


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; on timeout kills the whole group
    and waits for it, so no process outlives the benchmark."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail(f"{cmd[0]} timed out after {timeout} s", 1)
    return p.returncode, out


def build(jars):
    """Returns the runtime classpath, compiling first if any input changed."""
    stamp_file = os.path.join(BUILD, "stamp")
    cp_file = os.path.join(BUILD, "classpath")
    stamp = fingerprint()
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as f:
            if f.read().strip() == stamp:
                with open(cp_file) as g:
                    return g.read().strip()
    sbt = shutil.which("sbt")
    if not sbt:
        fail("sbt is not on PATH")
    env = dict(os.environ, PERFBENCH_SPARK_JARS=jars)
    repos = os.path.expanduser("~/.sbt/repositories")
    if "SBT_OPTS" not in env and os.path.exists(repos):
        # offline build against the local caches
        env["SBT_OPTS"] = (f"-Dsbt.override.build.repos=true -Dsbt.repository.config={repos} "
                           "-Dsbt.offline=true")
    env.setdefault("COURSIER_MODE", "offline")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "-Dsbt.supershell=false", f"-Djava.io.tmpdir={tmp}", "-J-XX:-UsePerfData",
           "compile", "export Runtime/fullClasspath"]
    print("perfbench: building (sbt compile)", file=sys.stderr)
    code, out = run_group(cmd, BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=subprocess.PIPE, text=True)
    lines = [l.strip() for l in (out or "").splitlines() if l.strip()]
    if code != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write(out or "")
        fail("build failed", 1)
    os.makedirs(BUILD, exist_ok=True)
    with open(cp_file, "w") as f:
        f.write(lines[-1])
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return lines[-1]


def main():
    ap = argparse.ArgumentParser(description="G2Miner wall-clock benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    a = ap.parse_args()

    if not os.path.isdir(PROGRAM_SOURCES):
        fail(f"program sources not found at {os.path.relpath(PROGRAM_SOURCES, os.getcwd())}; "
             "run from the root of a full checkout")
    cp = build(spark_jars())

    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    trace_file = os.path.join(BUILD, "trace", f"{a.workload}-seed{a.seed}.json")
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = ([java, f"-Xms{JVM_HEAP}", f"-Xmx{JVM_HEAP}", "-XX:-UsePerfData"] + JVM_GC
           + [f"--add-opens={p}=ALL-UNNAMED" for p in ADD_OPENS]
           + [f"-Djava.io.tmpdir={tmp}",
              f"-Dspark.local.dir={os.path.join(BUILD, 'spark-local')}",
              f"-Dspark.sql.warehouse.dir={os.path.join(BUILD, 'spark-warehouse')}",
              "-Dspark.driver.host=127.0.0.1", "-Dspark.log.level=WARN",
              "-cp", cp, MAIN_CLASS,
              "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
              "--trace", a.trace, "--trace-file", trace_file])
    code, out = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = (out or "").splitlines()
    sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if code != 0 or not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        if lines:
            print(lines[-1], file=sys.stderr)
        fail(f"benchmark run failed (exit {code})", 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
