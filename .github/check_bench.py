"""Checks every committed BENCH_*.json against the file a fresh `exp all`
wrote over it: the same entry names in the same order, each with the
same `metrics` (names, order and values). `timings` hold host readings
and are ignored. Run from the repository root after `exp all`.
"""
import json
import subprocess
import sys


def results(text):
    return [(e["name"], list(e["metrics"].items())) for e in json.loads(text)["entries"]]


files = subprocess.check_output(["git", "ls-files", "BENCH_*.json"], text=True).split()
if not files:
    sys.exit("no committed BENCH_*.json files")
stale = 0
for f in files:
    fresh, committed = results(open(f).read()), results(subprocess.check_output(["git", "show", "HEAD:" + f]))
    diff = [(c, n) for c, n in zip(committed, fresh) if c != n]
    if len(fresh) != len(committed) or diff:
        stale += 1
        print(f"{f}: {len(committed)} committed entries, {len(fresh)} fresh; first difference: {diff[:1]}")
print(f"{len(files) - stale} of {len(files)} BENCH files match their committed results")
sys.exit(1 if stale else 0)
