#!/usr/bin/env python3
"""Compare two result sets of the qmg benchmark (stdlib only).

    python3 benchmark/compare.py PARENT CHANGE [--layers]
    python3 benchmark/compare.py --selftest

PARENT and CHANGE are each a directory of result files written by
benchmark/run.py (or one such file); each set should hold several runs of
every workload.  For each workload and end-to-end metric it prints the
parent's and the change's median with quartiles and applies the bound from
BENCHMARK.json:

  regression  the change's median is worse than the parent's by more than
              the bound;
  unresolved  either side's spread (interquartile range over median) is
              wider than the bound, unless every change run is better than
              every parent run;
  ok          otherwise.

Exact counts (iterations, matvecs, applications, messages, allreduces) come
from the reference configuration every run shares: they must be equal
across all runs of a workload, and a difference between the sets is
reported as `changed`.  --layers adds the per-layer medians of traced runs,
without verdicts.  Exits 1 when anything regressed, is unresolved or
changed.
"""

import argparse
import io
import json
import pathlib
import statistics
import sys

SPEC = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_results(path):
    """Result files of run.py (other JSON files are skipped)."""
    path = pathlib.Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    results = []
    for f in files:
        try:
            r = json.loads(f.read_text())
        except ValueError:
            continue
        if isinstance(r, dict) and "workload" in r and "exact" in r:
            results.append(r)
    return results


def summary(values):
    """(median, q1, q3, spread) with spread = (q3 - q1) / median."""
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def verdict(parent, change, bound, lower_is_better):
    """Verdict and the change's relative worsening for one metric."""
    pm, _, _, ps = summary(parent)
    cm, _, _, cs = summary(change)
    worse = (cm / pm - 1) if lower_is_better else (pm / cm - 1)
    all_better = (max(change) < min(parent) if lower_is_better
                  else min(change) > max(parent))
    if max(ps, cs) > bound and not all_better:
        return "unresolved", worse
    if worse > bound:
        return "regression", worse
    return "ok", worse


def compare_exact(p_runs, c_runs, out):
    """Failing rows (0 or 1) of the exact-count comparison."""
    p_exact = {json.dumps(r["exact"], sort_keys=True) for r in p_runs}
    c_exact = {json.dumps(r["exact"], sort_keys=True) for r in c_runs}
    if len(p_exact) > 1 or len(c_exact) > 1:
        print("  exact        vary between runs of one set", file=out)
        return 1
    if p_exact != c_exact:
        before, after = json.loads(*p_exact), json.loads(*c_exact)
        keys = sorted(k for k in set(before) | set(after)
                      if before.get(k) != after.get(k))
        print(f"  exact        changed: {', '.join(keys)}", file=out)
        return 1
    print("  exact        equal", file=out)
    return 0


def compare(spec, parent, change, layers=False, out=sys.stdout):
    """Print the comparison; returns the number of failing rows."""
    failing = 0
    for w in (w["name"] for w in spec["workloads"]):
        p_runs = [r for r in parent if r["workload"] == w]
        c_runs = [r for r in change if r["workload"] == w]
        p_e2e = [r for r in p_runs if not r.get("traced")]
        c_e2e = [r for r in c_runs if not r.get("traced")]
        print(f"== {w}  (parent {len(p_e2e)} runs, change {len(c_e2e)} "
              f"runs)", file=out)
        if not p_e2e or not c_e2e:
            print("  no untraced runs in one set: unresolved", file=out)
            failing += 1
            continue
        for m in spec["end_to_end"]:
            pv = [r["metrics"][m["name"]]["value"] for r in p_e2e]
            cv = [r["metrics"][m["name"]]["value"] for r in c_e2e]
            v, worse = verdict(pv, cv, m["bound"], m["better"] == "lower")
            failing += v != "ok"
            pm, pq1, pq3, _ = summary(pv)
            cm, cq1, cq3, _ = summary(cv)
            print(f"  {m['name']:<12} parent {pm:.4g} [{pq1:.4g}, {pq3:.4g}]"
                  f"  change {cm:.4g} [{cq1:.4g}, {cq3:.4g}]  worse "
                  f"{worse:+.1%} (bound {m['bound']:.0%})  {v}", file=out)
        failing += compare_exact(p_runs, c_runs, out)
        p_tr = [r for r in p_runs if r.get("traced")]
        c_tr = [r for r in c_runs if r.get("traced")]
        for m in spec["per_layer"] if layers and p_tr and c_tr else []:
            pm = statistics.median(r["layers"][m["name"]]["value"]
                                   for r in p_tr)
            cm = statistics.median(r["layers"][m["name"]]["value"]
                                   for r in c_tr)
            ratio = f"{cm / pm:.3f}x" if pm else "-"
            print(f"  {m['name']:<28} parent {pm:<12.6g} change {cm:<12.6g} "
                  f"{ratio} {m['unit']}", file=out)
    return failing


def selftest():
    """Canned result sets with known verdicts."""
    spec = {"workloads": [{"name": "w"}], "per_layer": [],
            "end_to_end": [{"name": "t", "unit": "s", "better": "lower",
                            "bound": 0.1}]}

    def runs(values, exact=None):
        return [{"workload": "w", "traced": False,
                 "metrics": {"t": {"value": v, "unit": "s"}},
                 "exact": exact or {"iters": 10}} for v in values]

    base = [1.00, 1.01, 0.99, 1.02, 0.98]
    verdicts = [
        ("identical", base, base, "ok"),
        ("slower by 30%", base, [v * 1.3 for v in base], "regression"),
        ("faster by 30%", base, [v * 0.7 for v in base], "ok"),
        ("wide spread", base, [0.8, 1.3, 1.0, 0.7, 1.2], "unresolved"),
        ("wide but every run better", [1.0, 1.6, 1.2, 1.5, 1.1],
         [0.5, 0.9, 0.7, 0.6, 0.8], "ok"),
    ]
    rows = [
        ("identical sets", runs(base), runs(base), 0),
        ("changed exact count", runs(base), runs(base, {"iters": 11}), 1),
        ("exact counts varying within a set",
         runs(base) + runs(base, {"iters": 12}), runs(base), 1),
    ]
    failures = 0
    for label, p, c, want in verdicts:
        got, _ = verdict(p, c, 0.1, True)
        failures += got != want
        print(f"{'pass' if got == want else 'FAIL'}: {label}: {got}")
    for label, p, c, want in rows:
        got = compare(spec, p, c, out=io.StringIO())
        failures += got != want
        print(f"{'pass' if got == want else 'FAIL'}: {label}: {got} "
              f"failing row(s)")
    print("selftest", "ok" if not failures else f"FAILED ({failures})")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--layers", action="store_true",
                    help="also print per-layer medians of traced runs")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.parent or not args.change:
        ap.error("PARENT and CHANGE are required")
    spec = json.loads(SPEC.read_text())
    failing = compare(spec, load_results(args.parent),
                      load_results(args.change), args.layers)
    print(f"{failing} failing row(s)")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
