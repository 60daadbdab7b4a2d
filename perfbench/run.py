"""Chain benchmark for vorsim: one workload per process, checked outputs.

    python3 perfbench/run.py --workload torus-steady --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

A run makes one seeded ``vorsim simulate`` of each of its workload's
chains through the package's own command-line entry point, then repeats
the chains and the work after them until ``--seconds`` have passed,
checks the outputs against computations made apart from vorsim, and
prints one JSON object as its last line.  See README.md in this directory for the method and
the metrics.
"""

import argparse
import contextlib
import gc
import gzip
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench-run")
RESULTS = os.path.join(ROOT, "perfbench-results")

_perf = time.perf_counter

MIN_REPEATS = 3
# shares of a run's time: the chain is the main metric
WEIGHT = {"chain": 2.0, "traced": 2.0, "analysis": 1.0}
# torus-collapse's analysis rounds are short and its chain rounds long, so
# its chain takes a larger share and gets more rounds
CHAIN_WEIGHT = {"torus-collapse": 3.0}
THIEL_FAILURE = "needs at least two cells"
REGION = (0.0, 0.5)

# Each workload is fixed work: a space, N, T, a selection and a number of
# independent chains (1 unless ``chains`` says otherwise), whose seeds are
# ``seed * chains + k``.  torus-collapse runs six short chains: its cost
# is the share of steps that rebuild, which varies from seed to seed
# (21 to 47 of 48 steps over seeds 0-39), and the spread of that share
# over seeds shrinks with the number of independent steps.  The drift
# is estimated on REGION^d.  circle-large's 1024 events meet 22-60 values
# of N_A, and on some seeds none of them 50 times (the default
# ``min_bin_count``), so it asks for 8 and its drift is fitted on every
# seed.  torus-collapse starts collapsed, so its drift ends at the
# collapse check; torus-steady (neighbour table) and square-thin (whose
# final statistics fail first) fit none.
WORKLOADS = {
    "torus-collapse": dict(
        space="torus", N=256, T=12, chains=6, mode="replacement",
        selection={"kind": "volume_power", "alpha": 3.0},
        init={"kind": "single_cluster", "radius": 0.05},
        snapshot_every=1024),
    "torus-steady": dict(
        space="torus", N=4096, T=2048, mode="replacement",
        selection={"kind": "neighbor_table",
                   "values": [float(d) for d in range(1, 33)]},
        init="iid_mu", snapshot_every=1024),
    "circle-large": dict(
        space="circle", N=131072, T=1024, mode="replacement",
        selection={"kind": "volume_power", "alpha": 0.5},
        init="iid_mu", snapshot_every=1024, min_bin_count=8),
    "square-thin": dict(
        space="square", N=8192, T=8191, mode="thinning",
        selection={"kind": "volume_power", "alpha": 1.0},
        init="iid_mu", snapshot_every=1024),
}

# toy sizes for --smoke: same spaces and selections, every check
SMOKE = {
    "torus-collapse": dict(N=32, T=8, chains=2, snapshot_every=4),
    "torus-steady": dict(N=256, T=96, snapshot_every=32),
    "circle-large": dict(N=2048, T=96, snapshot_every=32, min_bin_count=2),
    "square-thin": dict(N=256, T=255, snapshot_every=64),
}

END_TO_END = (("steps_per_s", "1/s"), ("setup_s", "s"),
              ("analysis_s", "s"), ("peak_rss_mb", "MB"))


def _import_vorsim():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import vorsim
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import vorsim from {ROOT}/src: {exc}")
    where = os.path.dirname(os.path.abspath(vorsim.__file__))
    if where != os.path.join(ROOT, "src", "vorsim"):
        sys.exit(f"perfbench: vorsim imported from {where}, not the checkout")


def configs(name, seed, smoke):
    """The YAML configurations ``vorsim simulate`` runs for a workload,
    one per chain."""
    w = dict(WORKLOADS[name])
    if smoke:
        w.update(SMOKE[name])
    dim = 1 if w["space"] == "circle" else 2
    chains = w.get("chains", 1)
    out = []
    for k in range(chains):
        cfg = {
            "schema_version": 1,
            "space": {"kind": w["space"], "size": 1.0},
            "process": {"N": w["N"], "T": w["T"], "mode": w["mode"],
                        "selection": w["selection"], "init": w["init"],
                        "seed": int(seed) * chains + k},
            "statistics": {"region": list(REGION) * dim},
            "output": {"snapshot_every": w["snapshot_every"]},
        }
        if "min_bin_count" in w:
            cfg["statistics"]["min_bin_count"] = w["min_bin_count"]
        out.append(cfg)
    return out, w


class Repeat:
    """Timestamps and outputs of one repeat.

    ``t_call``: ``run`` called; ``t_first``: first tessellation mutation
    (end of set-up); ``t_ret``: ``run`` returned; ``t_final_stats``: the
    final statistics started; ``t_end``: ``vorsim simulate`` returned.
    """

    def __init__(self):
        self.t_call = self.t_first = self.t_ret = None
        self.t_final_stats = self.t_end = None
        self.exit_code = None
        self.stderr = ""
        self.trajectory = None
        self.final_tess = None

    @property
    def setup(self):
        return self.t_first - self.t_call

    @property
    def chain(self):
        return self.t_ret - self.t_first

    @property
    def analysis(self):
        """What ``vorsim simulate`` does after the chain.  A final
        statistics call that fails is left out: the work then ends where
        that call starts."""
        end = self.t_end if self.exit_code == 0 or self.t_final_stats is None \
            else self.t_final_stats
        return end - self.t_ret


class Round:
    """One repeat of each chain of a workload."""

    def __init__(self, chains):
        self.reps = [Repeat() for _ in range(chains)]

    @property
    def n_events(self):
        return sum(r.trajectory.n_events for r in self.reps)


def median_sum(rounds, attr):
    """The sum over a workload's chains of each chain's median time over
    ``rounds``; a slow stretch of the machine that hits one chain of a
    round is then left out."""
    return sum(statistics.median(getattr(r.reps[k], attr) for r in rounds)
               for k in range(len(rounds[0].reps)))


class Patch:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, value)

    def undo(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []


def _mark_setup_end(rep, patch):
    """Set-up ends at the first call that changes the tessellation; the
    hook puts the methods back on that call."""
    import vorsim.tessellation
    T = vorsim.tessellation.Tessellation
    originals = [(name, T.__dict__[name])
                 for name in ("replace_point", "remove_point")]

    def first(orig):
        def hook(*args, **kwargs):
            if rep.t_first is None:
                rep.t_first = _perf()
            for name, raw in originals:
                setattr(T, name, raw)
            return orig(*args, **kwargs)
        return hook

    for name, raw in originals:
        patch.set(T, name, first(raw))


def simulate(cfg_path, out_dir, rep, replay=None):
    """``vorsim simulate`` through the package's command-line entry point.

    With ``replay`` (a trajectory of the same configuration) the chain is
    not run again, so only the work after the chain is repeated.
    """
    import vorsim.cli
    import vorsim.tessellation
    cli, tmod = vorsim.cli, vorsim.tessellation
    inner_run, inner_fs, inner_build = cli.run, cli._final_statistics, \
        tmod.build
    patch = Patch()

    def chain(params, observers=(), stop_when=None):
        if replay is not None:
            rep.t_ret = _perf()
            return replay
        _mark_setup_end(rep, patch)
        rep.t_call = _perf()
        out = inner_run(params, observers=observers, stop_when=stop_when)
        rep.t_ret = _perf()
        rep.trajectory = out
        return out

    def final_statistics(*args, **kwargs):
        rep.t_final_stats = _perf()
        return inner_fs(*args, **kwargs)

    def build(points, space):
        rep.final_tess = inner_build(points, space)
        return rep.final_tess

    patch.set(cli, "run", chain)
    patch.set(cli, "_final_statistics", final_statistics)
    patch.set(tmod, "build", build)
    gc.collect()
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rep.exit_code = cli.main(
                ["simulate", "--config", cfg_path, "--out-dir", out_dir])
        rep.t_end = _perf()
    finally:
        patch.undo()
    rep.stderr = err.getvalue()
    if rep.t_ret is None or (replay is None and rep.t_first is None):
        raise RuntimeError("simulate did not run the chain through "
                           "vorsim.cli.run and the tessellation")


def chain_only(params, rep, tracer=None):
    """``process.run`` alone, as ``vorsim simulate`` calls it."""
    import vorsim.process
    run = vorsim.process.run
    if tracer is not None:
        run = tracer.wrap(run, "process.run")
    patch = Patch()
    gc.collect()
    try:
        _mark_setup_end(rep, patch)
        rep.t_call = _perf()
        rep.trajectory = run(params)
        rep.t_ret = _perf()
    finally:
        patch.undo()


def same_chain(a, b):
    import numpy as np
    ta, tb = a.trajectory, b.trajectory
    pairs = [(ta.steps, tb.steps), (ta.chosen, tb.chosen),
             (ta.removed, tb.removed), (ta.final_points, tb.final_points)]
    if (ta.inserted is None) != (tb.inserted is None):
        return False
    if ta.inserted is not None:
        pairs.append((ta.inserted, tb.inserted))
    return all(x.shape == y.shape and np.array_equal(x, y) for x, y in pairs)


def run_checks(w, rep, space, out_dir):
    """Independent checks of one repeat's outputs: list of (name, ok)."""
    import numpy as np
    from oracle import cells, drift_bins
    from vorsim import Tessellation

    checks = []
    tr = rep.trajectory
    L = 1.0
    measure = L if w["space"] == "circle" else L * L
    atol = 1e-11 * measure
    replacement = w["mode"] == "replacement"
    N = w["N"]

    def cell_checks(tag, points, vols, degs):
        ref_v, ref_d = cells(points, w["space"], L)
        vols = np.asarray(vols, dtype=float)
        degs = np.asarray(degs, dtype=np.int64)
        checks.append((f"{tag} volumes match independent Voronoi",
                       vols.shape == ref_v.shape
                       and float(np.max(np.abs(vols - ref_v))) <= atol))
        checks.append((f"{tag} degrees match independent Voronoi",
                       degs.shape == ref_d.shape
                       and bool(np.array_equal(degs, ref_d))))
        checks.append((f"{tag} volumes sum to the space's measure",
                       abs(float(vols.sum()) - measure) <= 1e-9 * measure))

    for snap in tr.snapshots:
        tag = f"snapshot {snap.step}"
        cell_checks(tag, snap.points, snap.volumes, snap.degrees)
        pts = np.asarray(snap.points, dtype=float).reshape(len(snap.points), -1)
        expect = N if replacement else N - snap.step
        distinct = len(np.unique(pts, axis=0)) == len(pts)
        inside = bool(np.all((pts >= 0.0) & (pts < L)))
        checks.append((f"{tag} holds {expect} distinct canonical points",
                       len(pts) == expect and distinct and inside))
    final = tr.snapshots[-1]
    checks.append(("final snapshot is the final configuration",
                   np.array_equal(np.asarray(final.points, dtype=float),
                                  tr.final_points)))
    if replacement:
        checks.append(("T replacement events",
                       tr.n_events == w["T"] and tr.inserted is not None))
    else:
        checks.append(("thinning ends with one survivor after N - 1 events",
                       tr.n_events == N - 1 and len(tr.final_points) == 1))

    fresh = [("final", rep.final_tess, final)]
    if not replacement:
        mid = tr.snapshots[len(tr.snapshots) // 2]
        fresh.append((f"snapshot {mid.step}",
                      Tessellation.build(list(map(tuple, mid.points)), space),
                      mid))
    for tag, tess, snap in fresh:
        ok = tess is not None
        if ok:
            v = np.asarray(tess.cell_volumes())
            d = np.asarray(tess.degrees())
            ok = (v.shape == snap.volumes.shape
                  and float(np.max(np.abs(v - snap.volumes))) <= atol
                  and np.array_equal(d, snap.degrees))
        checks.append((f"{tag} incremental cells equal a fresh build", ok))

    if "min_bin_count" in w:
        path = os.path.join(out_dir, "drift.csv")
        rows = []
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                rows = [line.split(",") for line in fh.read().split()[1:]]
        ref = drift_bins(tr.snapshots[0].points, tr.removed, tr.inserted,
                         *REGION, w["min_bin_count"])
        ok = bool(ref) and len(rows) == len(ref) and all(
            int(na) == ref_na and int(c) == ref_c
            and abs(float(mean) - ref_mean) <= 1e-12
            for (na, mean, c), (ref_na, ref_mean, ref_c) in zip(rows, ref))
        checks.append(("drift table written and equal to a recount of the "
                       "events", ok))
    return checks


def measure(name, seed, seconds, trace, smoke):
    _import_vorsim()
    sys.path.insert(0, HERE)
    import vorsim.config
    import yaml
    from spans import (COUNTS, PER_LAYER, Tracer, analysis_report,
                       chain_report)

    cfgs, w = configs(name, seed, smoke)
    run_dir = os.path.join(OUT_ROOT, f"{name}-{os.getpid()}")
    chains = []  # per chain: (configuration file, params, space, out dir)
    for k, cfg in enumerate(cfgs):
        chain_dir = os.path.join(run_dir, f"chain{k}")
        os.makedirs(chain_dir, exist_ok=True)
        cfg_path = os.path.join(chain_dir, "config.yaml")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(cfg, fh, sort_keys=True)
        valid = vorsim.config.validate_config(cfg)
        space = vorsim.config.build_space(valid)
        params = vorsim.config.build_params(valid, space=space)
        chains.append((cfg_path, params, space,
                       os.path.join(chain_dir, "out")))
    weight = dict(WEIGHT)
    weight["chain"] = weight["traced"] = CHAIN_WEIGHT.get(name,
                                                          WEIGHT["chain"])

    # The first round is a whole ``vorsim simulate`` of each chain.  Then
    # chain rounds (``process.run`` as simulate calls it) and analysis
    # rounds (simulate with the chain replayed) share the time by
    # ``weight``.  With tracing, traced and untraced chain rounds share
    # the chain's time and every analysis round is traced.
    reference = Round(len(chains))
    reps = {"chain": [reference], "traced": [], "analysis": [reference]}
    chain_layers, analysis_layers, chain_spans = [], [], []
    spent = {"chain": 0.0, "traced": 0.0, "analysis": 0.0}
    identical = True
    t0 = _perf()
    try:
        for (cfg_path, _, _, out_dir), rep in zip(chains, reference.reps):
            simulate(cfg_path, out_dir, rep)
        # peak memory of whole ``vorsim simulate`` calls, before any repeat
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        spent["chain"] = spent["traced"] = sum(r.t_ret - r.t_call
                                               for r in reference.reps)
        spent["analysis"] = sum(r.t_end - r.t_ret for r in reference.reps)
        last = dict(spent)
        kinds = ("chain", "traced", "analysis") if trace \
            else ("chain", "analysis")
        while True:
            done = {"chain": len(reps["chain"]) >= (1 if trace
                                                    else MIN_REPEATS),
                    "traced": len(reps["traced"]) >= MIN_REPEATS - 1,
                    "analysis": (len(analysis_layers) if trace
                                 else len(reps["analysis"])) >= MIN_REPEATS - 1}
            short = [k for k in kinds if not done[k]]
            kind = short[0] if short else \
                min(kinds, key=lambda k: spent[k] / weight[k])
            if not short and _perf() - t0 + last[kind] > seconds:
                break
            rnd = Round(len(chains))
            tracers = []
            start = _perf()
            for (cfg_path, params, _, out_dir), rep, ref in zip(
                    chains, rnd.reps, reference.reps):
                tracer = Tracer() if trace and kind != "chain" else None
                if tracer is not None:
                    tracers.append(tracer)
                    tracer.install()
                try:
                    if kind == "analysis":
                        simulate(cfg_path, out_dir, rep,
                                 replay=ref.trajectory)
                    else:
                        chain_only(params, rep, tracer)
                finally:
                    if tracer is not None:
                        tracer.uninstall()
                if kind == "analysis":
                    identical = identical and rep.exit_code == ref.exit_code
                else:
                    identical = identical and same_chain(ref, rep)
                    rep.trajectory = None
            last[kind] = _perf() - start
            spent[kind] += last[kind]
            spans = [t.spans for t in tracers]
            if kind == "analysis":
                if tracers:
                    analysis_layers.append(analysis_report(spans))
                    all_spans = (chain_spans, spans)
                else:
                    reps["analysis"].append(rnd)
                continue
            reps[kind].append(rnd)
            if tracers:
                chain_layers.append(chain_report(spans, reference.n_events))
                chain_spans = spans

        if trace:
            identical = identical and all(
                lay[c] == chain_layers[0][c]
                for lay in chain_layers for c in COUNTS if c in lay)
            write_spans(name, seed, all_spans)
        checks = [("same-seed repeats give bit-identical chains, exit "
                   "statuses and traced counts", identical)]
        for k, ((_, _, space, out_dir), ref) in enumerate(
                zip(chains, reference.reps)):
            tag = f"chain {k}: " if len(chains) > 1 else ""
            checks += [(tag + c, ok)
                       for c, ok in run_checks(w, ref, space, out_dir)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(OUT_ROOT)

    # each simulate call is one operation; on square-thin its final
    # statistics fail every time (Thiel redundancy of a single cell)
    sims_ok = [r.exit_code == 0 for r in reference.reps]
    known = all(ok or (w["mode"] == "thinning"
                       and THIEL_FAILURE in r.stderr)
                for ok, r in zip(sims_ok, reference.reps))
    bad = [c for c, ok in checks if not ok]
    for c in bad:
        print(f"check failed: {c}", file=sys.stderr)
    for ok, r in zip(sims_ok, reference.reps):
        if not ok:
            print(f"simulate exited {r.exit_code}: {r.stderr.strip()}",
                  file=sys.stderr)
    attempted = len(sims_ok) + len(checks)
    failed = sims_ok.count(False) + len(bad)
    correct = not bad and known

    n = reference.n_events
    chain_s = median_sum(reps["chain"], "chain")
    if trace:
        layers = {}
        for lay in chain_layers + analysis_layers:
            for metric, value in lay.items():
                layers.setdefault(metric, []).append(value)
        traced_s = median_sum(reps["traced"], "chain")
        layers["trace.overhead_pct"] = [100.0 * (traced_s / chain_s - 1.0)]
        metrics = {m: {"value": statistics.median(layers[m]), "unit": u}
                   for m, u in PER_LAYER}
    else:
        values = {
            "steps_per_s": n / chain_s,
            "setup_s": median_sum(reps["chain"], "setup"),
            "analysis_s": median_sum(reps["analysis"], "analysis"),
            "peak_rss_mb": peak_mb,
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
    print(f"{name}: seed {seed}, {len(chains)} chains, " + ", ".join(
        f"{len(v)} {k}" for k, v in reps.items()) +
        f" rounds in {_perf() - t0:.1f} s, {n} steps", file=sys.stderr)
    for kind, attr in (("chain", "chain"), ("chain", "setup"),
                       ("traced", "chain"), ("analysis", "analysis")):
        times = [round(sum(getattr(r, attr) for r in rnd.reps), 4)
                 for rnd in reps[kind]]
        print(f"  {kind} rounds, {attr} s: {times}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def write_spans(name, seed, spans):
    """Write the spans of the last traced chain and analysis rounds, one
    list per chain."""
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"spans-{name}-seed{seed}.json.gz")
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent", "error"],
                   "chain": [[list(s) for s in one] for one in spans[0]],
                   "analysis": [[list(s) for s in one] for one in spans[1]]},
                  fh)


def smoke():
    """All workloads at toy size, traced and untraced, every check."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   name, "--seed", "1", "--seconds", "1", "--trace",
                   str(trace), "--size", "toy"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=170)
            try:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                res = None
            good = (proc.returncode == 0 and res is not None
                    and res["correct"] and res["attempted"] >= 1)
            ok = ok and good
            line = json.dumps(res) if res is not None else proc.stderr[-500:]
            print(f"{'ok  ' if good else 'FAIL'} {name} trace={trace} {line}")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at toy size and check it")
    args = p.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required (or --smoke)")
    res = measure(args.workload, args.seed, args.seconds, args.trace,
                  args.size == "toy")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
