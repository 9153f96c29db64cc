#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

usage (from the root of a checkout):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --catalog

NAME is one of repro, advisor, rack-service, rack-batch. The driver is
configured and built with CMake under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) on first use; later runs only let
CMake confirm the build is current. Build output goes to stderr, so the
last line of standard output is the driver's result. Spans of traced
runs are written under .bench_build/perfbench/work/.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """SHA-256 over the sources the driver is built from."""
    h = hashlib.sha256()
    for top in ("src", os.path.join("bench", "figures"), "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_head():
    """HEAD of the git repository whose top level is ROOT, else "none".

    A tree exported inside another clone (ab.py's .bench_build/ab/<sha>/)
    is not a repository of its own: git would answer for the enclosing
    clone, so its answer is not used.
    """
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return "none"
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def commit_id():
    """The commit the sources come from (ab.py names it in PERFBENCH_COMMIT
    for the trees it exports) and a digest of the sources themselves."""
    sha = os.environ.get("PERFBENCH_COMMIT") or git_head()
    return "git=%s;sources-sha256=%s" % (sha, source_digest()[:16])


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            sys.exit(1)


def main():
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "bench", "figures"))):
        sys.stderr.write("perfbench: %s holds no repository sources (src/, bench/figures/)\n"
                         % ROOT)
        sys.exit(2)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT if not os.path.isabs(target) else "", target, "perfbench")
    build(build_dir)
    driver = os.path.join(build_dir, "perfbench")
    args = [driver] + sys.argv[1:]
    if "--catalog" not in sys.argv[1:]:
        args += ["--work-dir", os.path.join(build_dir, "work"), "--commit", commit_id()]
    sys.stdout.flush()
    os.execv(driver, args)


if __name__ == "__main__":
    main()
