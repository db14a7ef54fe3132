#!/usr/bin/env python3
"""Build file of the LoCEC benchmark.

Compiles the program (src/main/scala) together with the benchmark's own
sources (perfbench/src) with the Scala compiler that ships in the Spark
distribution, into .bench_build/perfbench/classes. A digest of every
source is stored next to the classes, so an unchanged tree is not rebuilt.

    python3 perfbench/build.py        # from the repository root
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars):
        sys.exit("build: Spark distribution not found (set SPARK_HOME)")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        sys.exit("build: java not found (set JAVA_HOME)")
    return exe


def sources():
    program = os.path.join(ROOT, "src", "main", "scala")
    if not os.path.isdir(program):
        sys.exit(f"build: program sources {os.path.relpath(program, ROOT)} not found")
    found = []
    for top in (program, os.path.join(HERE, "src")):
        for d, _, files in os.walk(top):
            found += [os.path.join(d, f) for f in files if f.endswith(".scala")]
    return sorted(found)


def build():
    """Compile if needed; return the run classpath."""
    jars = spark_jars()
    srcs = sources()
    digest = hashlib.sha256()
    for s in srcs:
        digest.update(os.path.relpath(s, ROOT).encode())
        with open(s, "rb") as f:
            digest.update(f.read())
    stamp = os.path.join(OUT, "classes.sha256")
    classes = os.path.join(OUT, "classes")
    classpath = classes + os.pathsep + os.path.join(jars, "*")
    if os.path.exists(stamp) and open(stamp).read() == digest.hexdigest():
        return classpath

    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [java(), "-Xss8m", "-Xmx1g", "-cp", os.path.join(jars, "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", tmp] + srcs
    print(f"build: compiling {len(srcs)} sources", file=sys.stderr)
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        sys.exit("build: compilation failed")
    shutil.rmtree(classes, ignore_errors=True)
    os.rename(tmp, classes)
    with open(stamp, "w") as f:
        f.write(digest.hexdigest())
    return classpath


if __name__ == "__main__":
    build()
