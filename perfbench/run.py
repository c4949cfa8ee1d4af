#!/usr/bin/env python3
"""Run one benchmark workload; the last line of standard output is the result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The first run builds the program
(src/main/scala) and the benchmark's code (perfbench/src) with the
benchmark's own sbt build; later runs reuse the classes until a source file
changes. The benchmark runs in a plain `java` process that carries the JDK 17
module opens Spark needs. Everything the benchmark writes goes under
.bench_build/ at the root.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
CLASSES = os.path.join(HERE, "target", "scala-2.13", "classes")
STAMP = os.path.join(WORK, "build.stamp")

HEAP = "3g"  # fixed JVM heap; recorded in every result
TIMEOUT_S = 170  # the whole run must end within 180 s

# Spark on JDK 17 needs these packages opened to the unnamed module (the
# same list the repository's test configurations pass).
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent",
    "java.util.concurrent.atomic", "sun.nio.ch", "sun.nio.cs",
    "sun.security.action", "sun.util.calendar",
]


def sources():
    """Every file the build reads, in a fixed order."""
    files = [os.path.join(HERE, "build.sbt"),
             os.path.join(HERE, "project", "build.properties")]
    for top in (os.path.join(ROOT, "src", "main", "scala"),
                os.path.join(HERE, "src")):
        for d, _, names in sorted(os.walk(top)):
            files += [os.path.join(d, n) for n in sorted(names)]
    return files


def build():
    """Compile with sbt unless the classes match the current sources."""
    digest = hashlib.sha256()
    for f in sources():
        digest.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            digest.update(fh.read())
    stamp = digest.hexdigest()
    if os.path.isdir(CLASSES) and os.path.exists(STAMP):
        with open(STAMP) as fh:
            if fh.read().strip() == stamp:
                return
    sbt = shutil.which("sbt")
    if sbt is None:
        sys.exit("perfbench: sbt is not on PATH")
    cmd = [sbt, "--batch", "-Dsbt.log.noformat=true",
           "-Dsbt.global.base=" + os.path.join(WORK, "sbt-global"),
           "-Dsbt.server.autostart=false", "-J-XX:-UsePerfData",
           "-J-Djava.io.tmpdir=" + os.path.join(WORK, "tmp"), "compile"]
    # Build output goes to stderr: standard output carries only results.
    subprocess.run(cmd, cwd=HERE, stdout=sys.stderr, check=True, timeout=850,
                   env=dict(os.environ, SPARK_HOME=spark_home()))
    with open(STAMP, "w") as fh:
        fh.write(stamp + "\n")


def spark_home():
    """$SPARK_HOME, or the distribution that holds spark-submit on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        sys.exit("perfbench: set SPARK_HOME to a Spark 4 distribution")
    return home


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--scale", type=int,
                    help="override the workload's input scale (self-check)")
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        sys.exit("perfbench: no src/main/scala next to perfbench/; "
                 "run from a full checkout of the repository")
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    build()

    spark_jars = os.path.join(spark_home(), "jars", "*")
    cmd = ["java", "-Xmx" + HEAP, "-Xms" + HEAP, "-XX:-UsePerfData",
           "-Djava.io.tmpdir=" + os.path.join(WORK, "tmp"),
           "-Dspark.driver.host=127.0.0.1"]
    cmd += ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in OPENS]
    cmd += ["-cp", CLASSES + os.pathsep + spark_jars, "perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace,
            "--work", WORK, "--sim-expected", os.path.join(HERE, "sim_expected.tsv"),
            "--git", git_sha()]
    if args.scale is not None:
        cmd += ["--scale", str(args.scale)]
    # Spark prefers SPARK_LOCAL_DIRS over spark.local.dir; keep its
    # scratch space inside the checkout either way.
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(WORK, "spark-local"))
    # A SIGTERM ends this process through the `finally` below, so the JVM
    # never outlives it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
