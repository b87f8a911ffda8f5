"""Checks every committed BENCH_*.json against the file a fresh `exp all`
wrote over it: the same entry names in the same order, each with the
same `metrics` (names, order and values). `timings` hold host readings
and are ignored. Run from the repository root after `exp all`.

A stale file is explained by entry name: every added, missing or
reordered entry, and every metric that was added, removed, reordered or
changed its value.
"""
import json
import subprocess
import sys


def results(text):
    return [(e["name"], list(e["metrics"].items())) for e in json.loads(text)["entries"]]


def moved(committed, fresh):
    """Each name common to both lists whose place among the common names
    differs, with its committed and fresh places."""
    common = set(committed) & set(fresh)
    before = list(dict.fromkeys(n for n in committed if n in common))
    after = list(dict.fromkeys(n for n in fresh if n in common))
    return [(n, before.index(n), i) for i, n in enumerate(after) if before[i] != n]


def explain(committed, fresh):
    """One line per difference between two entry lists, keyed by name."""
    names_c, names_f = [n for n, _ in committed], [n for n, _ in fresh]
    twice = sorted({n for n in names_c + names_f if max(names_c.count(n), names_f.count(n)) > 1})
    lines = [f"  entry {n}: {names_c.count(n)} committed, {names_f.count(n)} fresh" for n in twice]
    lines += [f"  added entry {n}" for n in names_f if n not in names_c]
    lines += [f"  missing entry {n}" for n in names_c if n not in names_f]
    lines += [f"  reordered entry {n}: place {i} -> {j}" for n, i, j in moved(names_c, names_f)]
    metrics_f = dict(fresh)
    for name, metrics_c in committed:
        if name not in metrics_f or metrics_f[name] == metrics_c:
            continue
        mc, mf = dict(metrics_c), dict(metrics_f[name])
        lines += [f"  {name}: added metric {m} = {mf[m]}" for m in mf if m not in mc]
        lines += [f"  {name}: missing metric {m} (was {mc[m]})" for m in mc if m not in mf]
        lines += [f"  {name}: {m} {mc[m]} -> {mf[m]}" for m in mc if m in mf and mc[m] != mf[m]]
        lines += [f"  {name}: reordered metric {m}: place {i} -> {j}" for m, i, j in moved(list(mc), list(mf))]
    return lines


files = subprocess.check_output(["git", "ls-files", "BENCH_*.json"], text=True).split()
if not files:
    sys.exit("no committed BENCH_*.json files")
stale = 0
for f in files:
    fresh, committed = results(open(f).read()), results(subprocess.check_output(["git", "show", "HEAD:" + f]))
    if fresh != committed:
        stale += 1
        print(f"{f}: {len(committed)} committed entries, {len(fresh)} fresh")
        print("\n".join(explain(committed, fresh) or ["  entries differ"]))
print(f"{len(files) - stale} of {len(files)} BENCH files match their committed results")
sys.exit(1 if stale else 0)
