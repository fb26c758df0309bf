#!/usr/bin/env python3
"""Same-host A/B comparison of one perfbench workload between two revisions.

    python3 bench/ab.py --base REV [--head REV] --workload W [--pairs N]
                        [--seconds S] [--seed K]

Each revision is extracted with `git archive` into .bench_build/ab/<sha>/
(without --head, the working tree -- tracked and untracked, unignored files
-- is copied into .bench_build/ab/worktree/ instead) and built by that
revision's own perfbench/run.py. Then N pairs run, the side that runs first
alternating from pair to pair, so drifting host load falls on both sides.

Printed per end-to-end metric of BENCHMARK.json: each side's median and
interquartile range, the median over pairs of the head/base ratio with its
range, and the pairs the head won (a lower or higher value, as the metric's
`better` says). Then whether every run reported `correct`, and whether all
runs agree on the reference digest and on `delay95_ps`. Exit code 0 when
they do, 1 otherwise (the timing verdict is the reader's: no gate here).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
AB_DIR = os.path.join(ROOT, ".bench_build", "ab")


def die(message):
    print("ab: " + message, file=sys.stderr)
    sys.exit(2)


def git(*args, **kwargs):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, **kwargs).stdout


def resolve(rev):
    try:
        sha = git("rev-parse", "--verify", rev + "^{commit}", text=True)
    except subprocess.CalledProcessError:
        die("not a commit: " + rev)
    return sha.strip()


def extract_revision(sha):
    """The revision's tree under .bench_build/ab/<sha>, extracted once."""
    dest = os.path.join(AB_DIR, sha[:12])
    marker = os.path.join(dest, ".ab_extracted")
    if os.path.isfile(marker):
        return dest
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar",
                                sha], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        die("git archive failed for " + sha)
    open(marker, "w").close()
    return dest


def copy_worktree():
    """The working tree's files under .bench_build/ab/worktree. Only files
    whose bytes changed are rewritten, so the build there stays incremental;
    files gone from the working tree are removed."""
    dest = os.path.join(AB_DIR, "worktree")
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    files = [f for f in listed.decode().split("\0")
             if f and os.path.isfile(os.path.join(ROOT, f))]
    for rel in files:
        src = os.path.join(ROOT, rel)
        dst = os.path.join(dest, rel)
        with open(src, "rb") as f:
            data = f.read()
        if os.path.isfile(dst):
            with open(dst, "rb") as f:
                if f.read() == data:
                    continue
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        with open(dst, "wb") as f:
            f.write(data)
    keep = set(files)
    for dirpath, dirnames, filenames in os.walk(dest):
        if dirpath == dest and ".bench_build" in dirnames:
            dirnames.remove(".bench_build")
        for name in filenames:
            rel = os.path.relpath(os.path.join(dirpath, name), dest)
            if rel not in keep:
                os.remove(os.path.join(dirpath, name))
    return dest


def build(tree):
    """Builds `tree`'s perfbench binary through its own run.py."""
    code = ("import sys; sys.path.insert(0, %r); import run; run.build()"
            % os.path.join(tree, "perfbench"))
    done = subprocess.run([sys.executable, "-c", code], cwd=tree,
                          stdout=sys.stderr.fileno(), check=False)
    if done.returncode != 0:
        die("build failed in " + tree)


def run_once(tree, args):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stdout + done.stderr)
        die("no JSON result from " + " ".join(cmd))
    digest = None
    for line in lines:
        if line.startswith("reference digest "):
            digest = line.split()[-1]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return {"correct": result["correct"] and done.returncode == 0,
            "failed": result["failed"], "digest": digest, "values": values}


def quantile(xs, q):
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def fmt(x):
    if x == 0:
        return "0"
    if abs(x) >= 100:
        return "%.1f" % x
    return "%.4g" % x


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", default=None,
                        help="default: the working tree, as it is")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=21.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 1 or not args.seconds > 0:
        die("--pairs must be >= 1 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]

    base_sha = resolve(args.base)
    sides = {"base": (base_sha[:12], extract_revision(base_sha))}
    if args.head is None:
        sides["head"] = ("worktree", copy_worktree())
    else:
        head_sha = resolve(args.head)
        sides["head"] = (head_sha[:12], extract_revision(head_sha))
    for name, (label, tree) in sides.items():
        print("ab: building %s (%s)" % (name, label), file=sys.stderr)
        build(tree)

    runs = {"base": [], "head": []}
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for name in order:
            r = run_once(sides[name][1], args)
            runs[name].append(r)
            print("ab: pair %d/%d %s solves_per_s=%s correct=%s"
                  % (i + 1, args.pairs, name,
                     fmt(r["values"].get("solves_per_s", float("nan"))),
                     r["correct"]), file=sys.stderr)

    print("workload %s seed %d, %d pairs at --seconds %s; base %s, head %s"
          % (args.workload, args.seed, args.pairs, args.seconds,
             sides["base"][0], sides["head"][0]))
    header = ("metric", "unit", "better", "base median [q1, q3]",
              "head median [q1, q3]", "ratio head/base (min-max)", "head wins")
    rows = [header]
    for m in end_to_end:
        name = m["name"]
        base = [r["values"].get(name) for r in runs["base"]]
        head = [r["values"].get(name) for r in runs["head"]]
        if None in base or None in head:
            continue
        ratios = [h / b for b, h in zip(base, head) if b != 0]
        if m["better"] == "higher":
            wins = sum(h > b for b, h in zip(base, head))
        else:
            wins = sum(h < b for b, h in zip(base, head))
        rows.append((
            name, m["unit"], m["better"],
            "%s [%s, %s]" % (fmt(quantile(base, 0.5)),
                             fmt(quantile(base, 0.25)),
                             fmt(quantile(base, 0.75))),
            "%s [%s, %s]" % (fmt(quantile(head, 0.5)),
                             fmt(quantile(head, 0.25)),
                             fmt(quantile(head, 0.75))),
            "%.3f (%.3f-%.3f)" % (quantile(ratios, 0.5), min(ratios),
                                  max(ratios)) if ratios else "-",
            "%d/%d" % (wins, args.pairs)))
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())

    everything = runs["base"] + runs["head"]
    correct = all(r["correct"] and r["failed"] == 0 for r in everything)
    digests = {r["digest"] for r in everything}
    delays = {r["values"].get("delay95_ps") for r in everything}
    print("every run correct with 0 failed: %s" % ("yes" if correct else "NO"))
    print("reference digests match: %s (%s)"
          % ("yes" if len(digests) == 1 else "NO",
             ", ".join(sorted(str(d) for d in digests))))
    print("delay95_ps match: %s (%s)"
          % ("yes" if len(delays) == 1 else "NO",
             ", ".join(sorted(repr(d) for d in delays))))
    sys.exit(0 if correct and len(digests) == 1 and len(delays) == 1 else 1)


if __name__ == "__main__":
    main()
