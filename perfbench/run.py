#!/usr/bin/env python3
"""LoCEC benchmark: one command that builds the program, runs a named
workload and prints its metrics.

    python3 perfbench/run.py --workload sparse-cnn --seed 1 --seconds 10 --trace 0

Run it from the repository root. The last line of stdout is the JSON
result; Spark logs and progress go to stderr. See perfbench/README.md.
"""
import argparse
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing but .bench_build behind
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

# One run must finish within 180 s; the JVM gets this much of it.
JVM_TIMEOUT_S = 170

# Spark on JDK 17 needs these opens (the same set build.sbt passes to tests).
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5",
]


def heap_mb():
    """A quarter of the machine's (or the container's) memory, 1-3 GB."""
    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        with open("/sys/fs/cgroup/memory.max") as f:
            limit = f.read().strip()
        if limit.isdigit():
            total = min(total, int(limit))
    except OSError:
        pass
    return max(1024, min(3072, total // 4 // 2**20))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    a = ap.parse_args()

    classpath = build.build()
    out = os.path.join(build.OUT, "run")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    heap = heap_mb()
    cmd = ([build.java(), f"-Xms{heap}m", f"-Xmx{heap}m",
            "-XX:+IgnoreUnrecognizedVMOptions",
            f"-Djava.io.tmpdir={tmp}",
            "-Dlog4j.configurationFile=" + os.path.join(build.HERE, "log4j2.properties")]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
           + ["-cp", classpath, "repro.perf.Main",
              "--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds), "--trace", a.trace, "--out", out])
    # a SIGTERM to this script must not leave the JVM running
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("run: terminated"))
    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run: benchmark JVM exceeded {JVM_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        sys.exit(f"run: benchmark JVM exited with {proc.returncode}")
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
