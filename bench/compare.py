"""Compare saved benchmark runs of two commits, metric by metric.

    python3 bench/compare.py --base parent/*.log --new change/*.log

Each log is the standard output of one `run.py` run.  Runs are grouped by
workload and trace mode; within a group the i-th base log and the i-th new
log form a pair, so give them in the order they ran.  For each metric the
report shows the median and quartiles of each side, the change of the
median, and how many pairs the new side won; the header shows the median
`host_ref_ms` of each side, so a shift in host speed is visible.
End-to-end metrics also get a verdict from the bounds in `BENCHMARK.json`:

- `worse`: the new median is worse than the base median by more than the
  bound;
- `unresolved`: the base runs spread wider than the bound, and not every
  new run beats every base run;
- `gain`: the new side won at least nine tenths of the pairs, and the
  medians differ by more than the base quartile spread;
- `same`: none of these.

Runs taken on different kernel backends, Python versions, run lengths or
in smoke mode are refused with exit code 2.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MATCHED_ENV = ("backend", "python", "seconds", "smoke")


def load(path):
    lines = Path(path).read_text().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, bound, higher_is_better):
    """Pairs the new side won, and the verdict described above."""
    sign = 1 if higher_is_better else -1
    b1, bmed, b3 = quartiles(base)
    nmed = statistics.median(new)
    wins = sum(sign * (n - b) > 0 for b, n in zip(base, new))
    pairs = min(len(base), len(new))
    if sign * (nmed - bmed) / bmed < -bound:
        return wins, "worse"
    all_better = all(sign * (n - b) > 0 for b in base for n in new)
    if (b3 - b1) / bmed > bound and not all_better:
        return wins, "unresolved"
    if wins >= 0.9 * pairs and abs(nmed - bmed) > b3 - b1:
        return wins, "gain"
    return wins, "same"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    runs = {"base": [load(p) for p in args.base], "new": [load(p) for p in args.new]}
    all_envs = [env for side in runs.values() for env, _ in side]
    for key in MATCHED_ENV:
        seen = {json.dumps(env.get(key)) for env in all_envs}
        if len(seen) > 1:
            print(f"refused: runs differ in {key}: {sorted(seen)}", file=sys.stderr)
            return 2
    if all_envs[0].get("smoke"):
        print("refused: smoke runs measure nothing", file=sys.stderr)
        return 2

    groups = {}
    for side, items in runs.items():
        for env, result in items:
            if not result["correct"]:
                print(f"note: a {side} run of {env['workload']} has "
                      f"{result['failed']} failed ops", file=sys.stderr)
            key = (env["workload"], env["trace"])
            group = groups.setdefault(key, {"base": [], "new": [], "base_ref": [], "new_ref": []})
            group[side].append(result["metrics"])
            group[side + "_ref"].append(env["host_ref_ms"])
    for (workload, trace), sides in sorted(groups.items()):
        if not sides["base"] or not sides["new"]:
            print(f"{workload} trace={trace}: runs on one side only, skipped")
            continue
        print(f"{workload} trace={trace}: {len(sides['base'])} base, {len(sides['new'])} new, "
              f"host_ref_ms base {statistics.median(sides['base_ref']):.3f} "
              f"new {statistics.median(sides['new_ref']):.3f}")
        for name in sides["base"][0]:
            base = [m[name]["value"] for m in sides["base"]]
            new = [m[name]["value"] for m in sides["new"]]
            b1, bmed, b3 = quartiles(base)
            n1, nmed, n3 = quartiles(new)
            change = (nmed - bmed) / bmed if bmed else float("nan")
            line = (f"  {name}: base {bmed:.6g} [{b1:.6g}, {b3:.6g}]  "
                    f"new {nmed:.6g} [{n1:.6g}, {n3:.6g}]  change {change:+.1%}")
            if name in bounds:
                spec_m = bounds[name]
                wins, label = verdict(base, new, spec_m["bound"], spec_m["better"] == "higher")
                line += f"  won {wins}/{min(len(base), len(new))}  {label}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
