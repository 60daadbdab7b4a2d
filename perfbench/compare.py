"""Collect series of benchmark runs and compare two of them.

    python3 perfbench/compare.py collect A.jsonl --seeds 0-9 [--workloads w1,w2] [--trace 0]
    python3 perfbench/compare.py report A.jsonl
    python3 perfbench/compare.py diff A.jsonl B.jsonl

``collect`` runs ``run.py`` once per workload and seed, one process at a
time, and appends each result as a JSON line.  ``report`` prints, per
workload and metric, the median, the quartiles and their spread (the
distance between the quartiles as a share of the median) against the
metric's bound in BENCHMARK.json.  ``diff`` prints both sides and whether
B's median is worse than A's by more than the bound; it exits non-zero
when a median is worse than its bound, when B has a run that crashed or
failed its checks, or when B has fewer usable runs than A.  Every run
lasts BENCHMARK.json's ``run_seconds``, so two series always compare
runs of one length.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _seeds(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def collect(path, workloads, seeds, trace):
    bench = _bench()
    names = workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    for name in names:
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   name, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines \
                else None
            row = {"workload": name, "seed": seed, "trace": trace,
                   "exit": proc.returncode, "result": result}
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(row) + "\n")
            brief = "FAILED " + proc.stderr[-300:] if result is None else \
                " ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items()
                         if not k.startswith("engine2d.abort"))[:300]
            print(f"{name} seed={seed}: {brief}", flush=True)


def _load(path):
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            rows.setdefault(row["workload"], []).append(row)
    return rows


def _quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _summary(rows):
    """Per metric: (q1, median, q3, n); the failed shares, whether every
    run finished and passed its checks, and the number of usable runs."""
    good = [r["result"] for r in rows if r["result"] is not None]
    metrics = {}
    for res in good:
        for k, v in res["metrics"].items():
            metrics.setdefault(k, []).append(v["value"])
    stats = {k: _quartiles(v) + (len(v),) for k, v in metrics.items()}
    shares = sorted({(r["failed"], r["attempted"]) for r in good})
    correct = all(r["correct"] for r in good) and len(good) == len(rows)
    return stats, shares, correct, len(good)


def _bounds():
    bench = _bench()
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def report(path):
    bounds = _bounds()
    for name, rows in _load(path).items():
        stats, shares, correct, usable = _summary(rows)
        print(f"{name}: {len(rows)} runs, {usable} usable, correct={correct}, "
              f"failed/attempted={shares}")
        for k, (q1, med, q3, n) in stats.items():
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(k, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = f" bound {bound:.2f}" + (
                    "  SPREAD>BOUND" if spread > bound else
                    "  spread>bound/3" if spread > bound / 3 else "")
            print(f"  {k:42s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:6.3f}{flag}")


def diff(path_a, path_b):
    bounds = _bounds()
    a_rows, b_rows = _load(path_a), _load(path_b)
    worst = 0
    for name in a_rows:
        if name not in b_rows:
            print(f"{name}: no runs in B")
            worst += 1
            continue
        sa, fa, ca, na = _summary(a_rows[name])
        sb, fb, cb, nb = _summary(b_rows[name])
        print(f"{name}: usable runs A={na} B={nb}, correct A={ca} B={cb}, "
              f"failed/attempted A={fa} B={fb}"
              + ("" if fa == fb else "  SHARE DIFFERS"))
        if nb < na:
            print("  B HAS FEWER USABLE RUNS")
        if not cb:
            print("  B HAS RUNS THAT CRASHED OR FAILED THEIR CHECKS")
        worst += (nb < na) + (not cb)
        for k in sa:
            if k not in sb:
                continue
            qa1, ma, qa3, _ = sa[k]
            qb1, mb, qb3, _ = sb[k]
            m = bounds.get(k, {})
            rel = (mb - ma) / ma if ma else 0.0
            verdict = ""
            if "bound" in m:
                worse = rel if m["better"] == "lower" else -rel
                ok = worse <= m["bound"]
                worst += 0 if ok else 1
                verdict = ("within bound" if ok else "WORSE THAN BOUND") + \
                    f" ({m['bound']:.2f})"
            print(f"  {k:42s} A {ma:11.6g} [{qa1:.6g}, {qa3:.6g}]  "
                  f"B {mb:11.6g} [{qb1:.6g}, {qb3:.6g}]  "
                  f"{rel:+7.2%} {verdict}")
    return 1 if worst else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--seeds", default="0-9")
    c.add_argument("--workloads", default="")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r = sub.add_parser("report")
    r.add_argument("file")
    d = sub.add_parser("diff")
    d.add_argument("a")
    d.add_argument("b")
    args = p.parse_args(argv)
    if args.cmd == "collect":
        wl = [w for w in args.workloads.split(",") if w]
        collect(args.out, wl, _seeds(args.seeds), args.trace)
        return 0
    if args.cmd == "report":
        report(args.file)
        return 0
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
