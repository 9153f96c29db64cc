#!/usr/bin/env python3
"""Same-host A/B comparison of two commits on the benchmark.

usage (from the root of a git clone):
  python3 perfbench/ab.py BASE [CHANGE] --workload NAME [--workload NAME ...]
                          [--pairs 10] [--seconds S] [--seed-base 1000]

BASE and CHANGE (default HEAD) are commits of this repository. Each is
exported with `git archive` into .bench_build/ab/<sha>/ (local git only,
no worktree metadata is left behind) and gets a copy of the working
tree's perfbench/, so both sides run identical benchmark code against
their own sources. Each side builds its own driver on first use.

For every workload it runs PAIRS pairs, one seed per pair, alternating
which side runs first, and reports per end-to-end metric each side's
median and quartiles, the change in the median, and the fraction of
pairs the change won (ties count for neither). A gain is claimed only
when the change wins at least nine tenths of the pairs and the medians
differ by more than the base's own quartile spread. The summary is also
written as JSON to .bench_build/ab/<base>-<change>.json.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
AB_DIR = os.path.join(ROOT, ".bench_build", "ab")


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True, capture_output=True,
                          text=True).stdout.strip()


def export(sha):
    """Exports `sha` and overlays the current benchmark sources."""
    dest = os.path.join(AB_DIR, sha)
    if not os.path.isdir(os.path.join(dest, "src")):
        os.makedirs(dest, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha], stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            sys.exit("ab: git archive %s failed" % sha)
    bench = os.path.join(dest, "perfbench")
    shutil.rmtree(bench, ignore_errors=True)
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), os.path.join(dest, "BENCHMARK.json"))
    return dest


def run_once(tree, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"),
               PERFBENCH_COMMIT=os.path.basename(tree))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                          str(seed), "--seconds", str(seconds), "--trace", "0"], cwd=tree,
                         env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        sys.exit("ab: %s run failed in %s (exit %d)" % (workload, tree, out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("ab: %s produced an incorrect result in %s" % (workload, tree))
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2]}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base")
    p.add_argument("change", nargs="?", default="HEAD")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int)
    p.add_argument("--seed-base", type=int, default=1000)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    shas = [git("rev-parse", "--verify", c + "^{commit}") for c in (args.base, args.change)]
    trees = [export(sha) for sha in shas]

    summary = {"base": shas[0], "change": shas[1], "seconds": seconds, "workloads": {}}
    for w in args.workload:
        runs = ([], [])
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for side in order:
                runs[side].append(run_once(trees[side], w, seed, seconds))
            sys.stderr.write("ab: %s pair %d/%d done\n" % (w, i + 1, args.pairs))
        rows = {}
        for name, direction in better.items():
            a = [r[name] for r in runs[0]]
            b = [r[name] for r in runs[1]]
            sign = 1 if direction == "higher" else -1
            wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
            sa, sb = summarize(a), summarize(b)
            rows[name] = {
                "base": sa, "change": sb,
                "delta_pct": 100.0 * (sb["median"] / sa["median"] - 1.0),
                "win_fraction": wins / len(a),
                "gain": wins >= 0.9 * len(a)
                        and abs(sb["median"] - sa["median"]) > sa["q3"] - sa["q1"],
            }
            print("%-12s %-12s base %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  "
                  "%+.1f%%  wins %.0f%%%s" % (
                      w, name, sa["median"], sa["q1"], sa["q3"], sb["median"], sb["q1"],
                      sb["q3"], rows[name]["delta_pct"], 100 * rows[name]["win_fraction"],
                      "  GAIN" if rows[name]["gain"] else ""))
        summary["workloads"][w] = rows
    path = os.path.join(AB_DIR, "%s-%s.json" % (shas[0][:12], shas[1][:12]))
    with open(path, "w") as f:
        json.dump(summary, f, indent=2)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
