#!/usr/bin/env python3
"""Run one CEAFF benchmark run from the root of a source checkout.

    python3 ceaffbench/run.py --workload zh-en-collective --seed 1 --seconds 20 --trace 0

Builds the program and the benchmark driver from source with sbt (once per
checkout; rebuilt when a source file changes), then starts one JVM that
sets up the workload's input, warms up, times passes for --seconds and
checks every pass. The JVM's last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}. The full record of the run
(input sizes, environment, per-pass samples, spans) is written to
.bench_build/ceaffbench/results/. Exits non-zero if the build fails, a pass
fails a check, or the run exceeds its time limit.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".bench_build" / "ceaffbench"
CLASSPATH = BENCH / "target" / "classpath.txt"
STAMP = OUT / "build.stamp"
# Class-data archive (JDK AppCDS) of the classes a run loads: written when
# the first run after a build exits, read by every later run. It cuts JVM
# and Spark start-up and first-query class loading by about 10 s a run; warm
# passes and warm input builds load few new classes, so it should not move
# run_s or setup_s.
CDS = OUT / "classes.jsa"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def sources():
    """Every file the build reads, in a stable order."""
    files = [BENCH / "build.sbt", BENCH / "project" / "build.properties", BENCH / "jvm.opts"]
    for d in (ROOT / "src" / "main", BENCH / "src" / "main"):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    return files


def source_hash():
    h = hashlib.sha256()
    for f in sources():
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def build():
    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        log(f"no program sources under {ROOT / 'src/main/scala/repro'}; run from the repository root")
        return False
    digest = source_hash()
    if CLASSPATH.is_file() and STAMP.is_file() and STAMP.read_text() == digest:
        return True
    log("building with sbt (first run in this checkout)")
    CDS.unlink(missing_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "writeClasspath"]
    try:
        # sbt output goes to stderr: stdout carries only the result line.
        done = subprocess.run(cmd, cwd=BENCH, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return False
    if done.returncode != 0 or not CLASSPATH.is_file():
        log(f"build failed with exit code {done.returncode}")
        return False
    OUT.mkdir(parents=True, exist_ok=True)
    STAMP.write_text(digest)
    return True


def jvm_env():
    """The caller's environment minus everything that would change how
    Spark or the JVM runs: the benchmark fixes those settings itself."""
    drop = ("JAVA_TOOL_OPTIONS", "_JAVA_OPTIONS", "JDK_JAVA_OPTIONS", "HADOOP_CONF_DIR")
    env = {k: v for k, v in os.environ.items()
           if not (k.startswith("SPARK_") or k.startswith("PYSPARK_") or k in drop)}
    env["SPARK_LOCAL_IP"] = "127.0.0.1"
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    a = ap.parse_args()

    if not build():
        return 2

    work = OUT / "work"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    result = OUT / "results" / f"{a.workload}-s{a.seed}-t{a.trace}.json"
    java = str(Path(os.environ["JAVA_HOME"]) / "bin" / "java") if "JAVA_HOME" in os.environ else "java"
    opts = [l.strip() for l in (BENCH / "jvm.opts").read_text().splitlines() if l.strip()]
    cds = f"-XX:SharedArchiveFile={CDS}" if CDS.is_file() else f"-XX:ArchiveClassesAtExit={CDS}"
    cmd = [java, *opts, cds, "-Xlog:cds=error",
           f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
           f"-Djava.io.tmpdir={work / 'tmp'}",
           f"-Dceaffbench.work={work}",
           "-cp", CLASSPATH.read_text().strip(), "ceaffbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--out", str(result)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=jvm_env())
    code = 3
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; killed")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
