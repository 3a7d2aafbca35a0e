"""Compare two result sets written by bench/run.py.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

A result set is the JSON-lines file that ``run.py --out`` appends to; only
untraced, full-size records are read.  For each workload and each
end-to-end metric of BENCHMARK.json it prints both medians, both quartile
pairs, each set's spread (interquartile range over median) and the relative
delta of the medians.  It flags:

* a delta worse than the metric's bound;
* any E_rho or E_u of NEW that differs from BASE's median by more than
  relative 1e-8;
* a different share of failed solves.

The exit status is 1 when anything is flagged.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ERROR_RTOL = 1e-8
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """Untraced full-size records of one result set, by workload."""
    by_workload = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec["trace"] or rec["smoke"]:
            continue
        by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(base, new, spec):
    flags = []
    lines = []
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            flags.append(f"{workload}: in one set only")
            continue
        a, b = base[workload], new[workload]
        lines.append(f"{workload}  (runs: base {len(a)}, new {len(b)})")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            qa = quartiles([r["metrics"][name]["value"] for r in a])
            qb = quartiles([r["metrics"][name]["value"] for r in b])
            delta = (qb[1] - qa[1]) / qa[1]
            worse = delta if m["better"] == "lower" else -delta
            flag = worse > bound
            lines.append(
                f"  {name:12s} base {qa[1]:10.4g} [{qa[0]:.4g}, {qa[2]:.4g}]"
                f" spread {(qa[2] - qa[0]) / qa[1]:6.1%}"
                f"  new {qb[1]:10.4g} [{qb[0]:.4g}, {qb[2]:.4g}]"
                f" spread {(qb[2] - qb[0]) / qb[1]:6.1%}"
                f"  delta {delta:+7.1%} (bound {bound:.0%})"
                + ("  WORSE" if flag else ""))
            if flag:
                flags.append(f"{workload} {name}: {delta:+.1%} beyond {bound:.0%}")
        if a[0]["errors"] is not None:
            for key in ("E_rho", "E_u"):
                ref = statistics.median(r["errors"][key] for r in a)
                moved = max(abs(r["errors"][key] - ref) / abs(ref) for r in b)
                flag = not moved <= ERROR_RTOL
                lines.append(f"  {key:12s} base {ref:.12e}  largest relative "
                             f"move {moved:.2e}" + ("  MOVED" if flag else ""))
                if flag:
                    flags.append(f"{workload} {key}: moved {moved:.2e}")
        share_a = {r["failed"] / r["attempted"] for r in a}
        share_b = {r["failed"] / r["attempted"] for r in b}
        lines.append(f"  failed share base {sorted(share_a)} new {sorted(share_b)}")
        if share_a != share_b:
            flags.append(f"{workload}: failed share {sorted(share_a)} -> "
                         f"{sorted(share_b)}")
    return lines, flags


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("new")
    args = p.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    lines, flags = compare(load(args.base), load(args.new), spec)
    print("\n".join(lines))
    for f in flags:
        print(f"FLAG {f}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
