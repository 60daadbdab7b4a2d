"""Command-line front end.

Five subcommands: ``simulate`` runs one chain and writes its event
records, snapshots, statistics tables and a raster; ``sweep`` runs one
chain per exponent and writes the sweep report plus per-exponent
snapshots; ``render`` turns an event file into a portable graymap;
``stats`` recomputes the statistics tables for a configured run; and
``selftest`` exercises the numerical kernels at reduced scale.

All floats in text outputs are written with ``repr`` and all generators
derive from the configured seed, so rerunning a command with the same
inputs reproduces every output byte for byte.
"""

import argparse
import os
import sys

import numpy as np
import yaml

from . import tessellation
from .config import build_params, build_space, load_config, stats_options
from .diagnostics import phase_sweep
from .errors import VorsimError
from .events import events_lines, parse_events
from .process import run
from .rasters import snapshot_raster, spacetime_raster, write_pgm
from .statistics import TestRegion, estimate_drift, pattern_summary


def _write_text(path, lines):
    """Write each line and a newline; no joined copy of the file is made."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _seed_source(args):
    """Where the run seed comes from: flag, file, override, or default."""
    if args.seed is not None:
        return "flag"
    for item in args.override or ():
        if item.split("=", 1)[0].strip() == "process.seed":
            return "override"
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
        if isinstance(raw, dict) and "seed" in raw.get("process", {}):
            return "file"
    except Exception:
        pass
    return "default"


def _load(args):
    cfg = load_config(args.config, args.override or ())
    if args.out_dir:
        cfg["output"]["directory"] = args.out_dir
    out_dir = cfg["output"]["directory"]
    os.makedirs(out_dir, exist_ok=True)
    return cfg, out_dir


def _snapshot_csv_lines(trajectory, dim):
    """The snapshots table: a header line, then one block of rows per
    snapshot (a block joins its rows with newlines).

    Rows are formatted by column.  A snapshot with as many points as the
    one before it formats only the rows whose point, volume or degree
    changed bits, and reuses the text after the step of the others.
    """
    head = "step,index,x,y,cell_volume,degree" if dim == 2 \
        else "step,index,x,cell_volume,degree"
    lines = [head]
    row = "{},{!r},{!r},{}" if dim == 1 else "{},{!r},{!r},{!r},{}"
    prev = None
    for snap in trajectory.snapshots:
        pts = np.ascontiguousarray(snap.points, dtype=float).reshape(-1, dim)
        vols = np.ascontiguousarray(snap.volumes, dtype=float)
        degs = np.asarray(snap.degrees, dtype=np.int64)
        bits = (pts.view(np.int64), vols.view(np.int64), degs)
        if prev is not None and len(pts) == len(prev[1]):
            old, rows = prev
            changed = ((bits[0] != old[0]).any(axis=1)
                       | (bits[1] != old[1]) | (bits[2] != old[2]))
            rows = rows.copy()
        else:
            changed = np.ones(len(pts), dtype=bool)
            rows = [None] * len(pts)
        idx = np.flatnonzero(changed)
        il = idx.tolist()
        fresh = map(row.format, il, *pts[idx].T.tolist(),
                    vols[idx].tolist(), degs[idx].tolist())
        for i, text in zip(il, fresh):
            rows[i] = text
        lines.append(f"{snap.step}," + f"\n{snap.step},".join(rows))
        prev = (bits, rows)
    return lines


def _points_csv_lines(points, dim):
    lines = ["x,y"] if dim == 2 else ["x"]
    for p in points:
        lines.append(f"{float(p[0])!r},{float(p[1])!r}" if dim == 2
                     else f"{float(p)!r}")
    return lines


def _final_statistics(cfg, space, trajectory, out_dir, notes):
    """Write summary (and drift, when configured) tables; extend notes."""
    opts = stats_options(cfg)
    tess = tessellation.build(trajectory.final_points, space)
    if tess.n < 2:
        # a thinning run to one survivor has no pattern to summarize
        notes.append("summary skipped (needs at least two points)")
    else:
        summary = pattern_summary(tess, r_grid=opts["r_grid"],
                                  f_resolution=opts["f_resolution"],
                                  grid_n=opts["grid_n"],
                                  volume_bins=opts["volume_bins"])
        _write_text(os.path.join(out_dir, "summary.csv"),
                    summary.table_lines())
        notes.append(f"thiel_R={summary.thiel_R:.4f}")
    if opts["region"] is not None:
        sel = trajectory.params.selection
        if sel.kind != "volume_power":
            notes.append("drift skipped (needs volume_power)")
            return
        region = TestRegion(space, opts["region"])
        try:
            est = estimate_drift(trajectory, region,
                                 min_bin_count=opts["min_bin_count"])
        except VorsimError as exc:
            notes.append(f"drift skipped ({exc})")
            return
        _write_text(os.path.join(out_dir, "drift.csv"), est.table_lines())
        notes.append(f"fitted_K={est.fitted_K!r}")


def cmd_simulate(args):
    cfg, out_dir = _load(args)
    space = build_space(cfg)
    params = build_params(cfg, space=space, seed=args.seed)
    seed_note = " (default)" if _seed_source(args) == "default" else ""
    trajectory = run(params)
    out = cfg["output"]
    notes = []
    if out["events"]:
        _write_text(os.path.join(out_dir, "events.txt"),
                    events_lines(trajectory))
    if out["snapshots"]:
        _write_text(os.path.join(out_dir, "snapshots.csv"),
                    _snapshot_csv_lines(trajectory, space.dim))
    if out["raster"]:
        bins = out["raster_bins"]
        if space.dim == 1:
            img = spacetime_raster(trajectory.snapshots[0].points,
                                   trajectory.removed, trajectory.inserted,
                                   space.size, bins)
            write_pgm(os.path.join(out_dir, "spacetime.pgm"), img)
        else:
            img = snapshot_raster(trajectory.final_points, space, bins)
            write_pgm(os.path.join(out_dir, "snapshot.pgm"), img)
    _final_statistics(cfg, space, trajectory, out_dir, notes)
    extra = (" " + " ".join(notes)) if notes else ""
    print(f"simulate: {space.kind} N={params.N} T={params.T} "
          f"seed={params.seed}{seed_note} events={trajectory.n_events} "
          f"out={out_dir}{extra}")
    return 0


def cmd_sweep(args):
    cfg, out_dir = _load(args)
    space = build_space(cfg)
    params = build_params(cfg, space=space, seed=args.seed)
    sweep_cfg = cfg.get("sweep") or {}
    if args.alphas:
        alphas = [float(s) for s in args.alphas.split(",") if s.strip()]
    else:
        alphas = sweep_cfg.get("alphas") or []
    if not alphas:
        raise VorsimError("no exponents: give sweep.alphas or --alphas")
    report = phase_sweep(alphas, params,
                         grid_n=sweep_cfg.get("grid_n", 10),
                         burn_in=sweep_cfg.get("burn_in"))
    _write_text(os.path.join(out_dir, "sweep.csv"), report.table_lines())
    bins = cfg["output"]["raster_bins"]
    for row in report.rows:
        tag = f"{float(row.alpha)!r}"
        _write_text(os.path.join(out_dir, f"snapshot_alpha_{tag}.csv"),
                    _points_csv_lines(row.final_points, space.dim))
        write_pgm(os.path.join(out_dir, f"snapshot_alpha_{tag}.pgm"),
                  snapshot_raster(row.final_points, space, bins))
    print(f"sweep: {space.kind} N={params.N} T={params.T} "
          f"alphas={','.join(repr(float(a)) for a in sorted(set(alphas)))} "
          f"out={out_dir}")
    return 0


def cmd_render(args):
    with open(args.events, "r", encoding="utf-8") as fh:
        data = parse_events(fh.read().splitlines())
    space = data["space"]
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    if args.kind == "spacetime":
        img = spacetime_raster(data["initial"], data["removed"],
                               data["inserted"], space.size, args.bins)
        path = os.path.join(out_dir, "spacetime.pgm")
    else:
        config = list(data["initial"])
        chosen = data["chosen"]
        ins = data["inserted"]
        for k in range(len(chosen)):
            j = int(chosen[k])
            if ins is None:
                config.pop(j)
            else:
                p = ins[k]
                config[j] = float(p[0]) if space.dim == 1 \
                    else (float(p[0]), float(p[1]))
        img = snapshot_raster(config, space, args.bins)
        path = os.path.join(out_dir, "snapshot.pgm")
    write_pgm(path, img)
    h, w = img.shape
    print(f"render: {args.kind} {w}x{h} -> {path}")
    return 0


def cmd_stats(args):
    cfg, out_dir = _load(args)
    space = build_space(cfg)
    params = build_params(cfg, space=space, seed=args.seed)
    trajectory = run(params)
    notes = []
    _final_statistics(cfg, space, trajectory, out_dir, notes)
    extra = (" " + " ".join(notes)) if notes else ""
    print(f"stats: {space.kind} N={params.N} T={params.T} "
          f"seed={params.seed} out={out_dir}{extra}")
    return 0


def cmd_selftest(args):
    from .selftest import run_selftest
    return run_selftest()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="vorsim",
        description="Voronoi-driven thinning and replacement chains")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="YAML run configuration")
    common.add_argument("--seed", type=int, default=None,
                        help="override the configured seed")
    common.add_argument("--out-dir", default=None,
                        help="override output.directory")
    common.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override one config entry (repeatable)")

    p = sub.add_parser("simulate", parents=[common],
                       help="run one chain and write its outputs")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("sweep", parents=[common],
                       help="run one chain per exponent")
    p.add_argument("--alphas", default=None,
                   help="comma-separated exponents (overrides sweep.alphas)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("render", help="raster an event file")
    p.add_argument("events", help="event file from simulate")
    p.add_argument("--kind", choices=("spacetime", "snapshot"),
                   default="spacetime")
    p.add_argument("--bins", type=int, default=256)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("stats", parents=[common],
                       help="write statistics tables for a configured run")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("selftest",
                       help="reduced-scale checks of the numerical kernels")
    p.set_defaults(fn=cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except VorsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
