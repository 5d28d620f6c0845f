#!/usr/bin/env python3
"""A/B wall time of one perfbench workload: a base revision against this checkout.

    python3 scripts/perf_ab.py --base origin/main --workload ftl_churn --pairs 10
    python3 scripts/perf_ab.py --base HEAD --workload ftl_churn --pairs 1 --seconds 1
    python3 scripts/perf_ab.py --base HEAD~1 --workload paper_mix --json ledger.json

Run it from anywhere inside the repository. The base revision is checked out
in a git worktree under .bench_build/ab/<commit>/ (kept, so a later run reuses
its build); the change side is this checkout, uncommitted edits included.
Each side runs its own perfbench/run.py, which builds its own Release tree.
The script then runs N pairs, alternating which side goes first, at one
workload and seed, and prints:

  - every pair's wall_s on both sides and the change/base ratio;
  - each side's median and quartiles, and how many pairs the change won;
  - both sides' medians of the other end-to-end metrics, and of the minor
    page faults and system CPU seconds per unit;
  - whether sim_digest and the failed-check counts matched on every pair.

The page faults and system time come from getrusage(RUSAGE_CHILDREN) taken
around each run.py call, so they cover its whole process tree (the build
check and the runner's start-up included), divided by the number of units
run.py reports ("over N units").

A speed-only change should win at least 9 of 10 pairs with a median gap
larger than the base's interquartile range, and must leave sim_digest alone.

With --json PATH, the script also appends one record for the invocation to
PATH, a JSON list it creates if missing: the base commit, workload, seed and
run length, every pair (order, both wall_s, the ratio, both digests and
failed-check counts, both sides' faults and system seconds per unit), each
side's wall_s median and quartiles, the win count and both sides' medians of
the other end-to-end metrics and of the two per-unit host costs. A perf change
commits that file as its BENCH_<n>.json ledger.
The exit code is 1 when a digest differs or any run failed a check, 2 when
the worktree cannot be made or a run prints no result, and 0 otherwise.
"""

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
AB_DIR = ROOT / ".bench_build" / "ab"

DIGEST = re.compile(r"sim_digest ([0-9a-f]+)")
UNITS = re.compile(r"checks over (\d+) units")
# Host costs per unit from getrusage around each run.py call (not run.py metrics).
HOST_COSTS = ("minor_faults_per_unit", "sys_s_per_unit")


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def base_worktree(rev):
    """Returns the checkout of `rev`, adding the worktree on first use."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = AB_DIR / sha[:12]
    if not (tree / "perfbench" / "run.py").exists():
        AB_DIR.mkdir(parents=True, exist_ok=True)
        git("worktree", "prune")
        git("worktree", "add", "--detach", str(tree), sha)
    if not (tree / "perfbench" / "run.py").exists():
        raise RuntimeError(f"{rev} ({sha[:12]}) has no perfbench/run.py")
    return sha, tree


def run_side(tree, args):
    """Runs perfbench once in `tree`; returns (metrics, failed, correct, digest).

    The metrics are run.py's end-to-end metrics plus HOST_COSTS.
    """
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=tree, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = "\n".join(lines[-20:])
        raise RuntimeError(f"no result from {tree} (exit {proc.returncode}):\n{tail}")
    digest = next((m.group(1) for m in map(DIGEST.search, lines) if m), None)
    units = next((int(m.group(1)) for m in map(UNITS.search, lines) if m), 0)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if units:
        metrics["minor_faults_per_unit"] = (after.ru_minflt - before.ru_minflt) / units
        metrics["sys_s_per_unit"] = (after.ru_stime - before.ru_stime) / units
    correct = (result["correct"] and proc.returncode == 0 and "wall_s" in metrics
               and all(name in metrics for name in HOST_COSTS))
    return metrics, result["failed"], correct, digest


def spread(values):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            return next((line.split(":", 1)[1].strip() for line in f
                         if line.startswith("model name")), None)
    except OSError:
        return None


def read_records(path):
    """The JSON list at `path`, or an empty list if there is no file yet."""
    path = Path(path)
    records = json.loads(path.read_text()) if path.exists() else []
    if not isinstance(records, list):
        raise ValueError(f"{path} does not hold a JSON list")
    return records


def append_record(path, record):
    """Appends `record` to the JSON list at `path`, creating the file if needed."""
    records = read_records(path)
    records.append(record)
    Path(path).write_text(json.dumps(records, indent=1) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", default="ftl_churn",
                    help="one perfbench workload (default ftl_churn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measured time per run (BENCHMARK.json run_seconds is 20)")
    ap.add_argument("--json", metavar="PATH",
                    help="append this invocation's pairs and summary to the JSON list at PATH")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.json:
        try:
            read_records(args.json)  # fail now, not after every pair has run
        except (OSError, ValueError) as e:
            ap.error(f"--json {args.json}: {e}")

    try:
        sha, base_tree = base_worktree(args.base)
    except (subprocess.CalledProcessError, RuntimeError) as e:
        print(f"perf_ab: cannot check out {args.base}: {e}", file=sys.stderr)
        return 2
    sides = {"base": base_tree, "change": ROOT}
    print(f"perf_ab: {args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s runs; base {args.base} ({sha[:12]}) in "
          f"{base_tree.relative_to(ROOT)}, change = this checkout", flush=True)

    runs = {"base": [], "change": []}
    pairs = []
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            try:
                runs[side].append(run_side(sides[side], args))
            except RuntimeError as e:
                print(f"perf_ab: {side} run of pair {i + 1}: {e}", file=sys.stderr)
                return 2
        (bm, bf, _, bd), (cm, cf, _, cd) = runs["base"][-1], runs["change"][-1]
        b, c = bm.get("wall_s", float("nan")), cm.get("wall_s", float("nan"))
        pair = {"first": order[0], "base_wall_s": b, "change_wall_s": c, "ratio": c / b,
                "base_digest": bd, "change_digest": cd, "base_failed": bf, "change_failed": cf}
        for name in HOST_COSTS:
            pair[f"base_{name}"], pair[f"change_{name}"] = bm.get(name), cm.get(name)
        pairs.append(pair)
        print(f"pair {i + 1:>2} ({order[0]} first): base {b:.4f} s, change {c:.4f} s, "
              f"change/base {c / b:.3f}; digest {bd} / {cd}; failed {bf} / {cf}", flush=True)

    record = {"base_commit": sha, "change_head": git("rev-parse", "HEAD"),
              "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
              "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "cpu": cpu_model(), "cpus": os.cpu_count(), "pairs": pairs}
    ok = all(r[2] for rs in runs.values() for r in rs)
    if not ok:
        print("a run failed a check or printed no wall_s")
    else:
        walls = {side: [r[0]["wall_s"] for r in rs] for side, rs in runs.items()}
        record["wall_s"] = {}
        for side, values in walls.items():
            med, q1, q3 = spread(values)
            record["wall_s"][side] = {"median": med, "q1": q1, "q3": q3}
            print(f"{side:<6} wall_s median {med:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s")
        wins = sum(c < b for b, c in zip(walls["base"], walls["change"]))
        base_med, base_q1, base_q3 = spread(walls["base"])
        change_med = spread(walls["change"])[0]
        gap, iqr = base_med - change_med, base_q3 - base_q1
        record["change_wins"] = wins
        print(f"change faster in {wins}/{args.pairs} pairs; change median "
              f"{change_med / base_med - 1:+.1%} vs base; median gap {abs(gap):.4f} s "
              f"{'>' if abs(gap) > iqr else '<='} base IQR {iqr:.4f} s")
        record["other_medians"] = {}
        for name in runs["base"][0][0]:
            if name == "wall_s":
                continue
            b, c = (statistics.median(r[0][name] for r in runs[side])
                    for side in ("base", "change"))
            record["other_medians"][name] = {"base": b, "change": c}
            ratio = f"{c / b:.4f}" if b else "n/a"
            print(f"  {name:<21} median base {b:.6g}, change {c:.6g}, change/base {ratio}")
    digests = {r[3] for rs in runs.values() for r in rs}
    digest_ok = len(digests) == 1 and None not in digests
    fails_ok = all(b[1] == c[1] for b, c in zip(runs["base"], runs["change"]))
    record["checks_passed"] = ok
    record["digests_matched"] = digest_ok
    record["failed_counts_matched"] = fails_ok
    print(f"sim_digest {'matched: ' + digests.pop() if digest_ok else 'DIFFERS'}; "
          f"failed-check counts {'matched' if fails_ok else 'DIFFER'}")
    if args.json:
        append_record(args.json, record)
        print(f"perf_ab: appended this run's record to {args.json}")
    return 0 if ok and digest_ok and fails_ok else 1


if __name__ == "__main__":
    sys.exit(main())
