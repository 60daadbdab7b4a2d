"""Newline-delimited event records for trajectories.

The file starts with ``#``-prefixed metadata (space, run parameters and
the full initial configuration, which makes the file self-contained for
rendering and replay), one header row naming the columns, and one row per
event.  All floats are written with ``repr``, so files are byte-identical
across reruns and parse back without loss.
"""

import numpy as np

from .errors import ConfigError
from .space import KINDS_1D, Space

FORMAT_NAME = "vorsim-events"
FORMAT_VERSION = 1


def _selection_line(sel):
    if sel.kind == "volume_power":
        return f"volume_power alpha={float(sel.alpha)!r}"
    if sel.kind == "volume_table":
        bp = " ".join(f"{float(b)!r}" for b in sel.breakpoints)
        vals = " ".join(f"{float(v)!r}" for v in sel.values)
        return f"volume_table breakpoints={bp} values={vals}"
    vals = " ".join(f"{float(v)!r}" for v in sel.values)
    return f"neighbor_table values={vals}"


def events_lines(trajectory):
    """Render a trajectory as event-record lines (without newlines)."""
    params = trajectory.params
    space = params.space
    dim = space.dim
    thinning = trajectory.inserted is None
    lines = [
        f"# {FORMAT_NAME} {FORMAT_VERSION}",
        f"# space: {space.kind} {float(space.size)!r}",
        f"# N: {params.N}",
        f"# T: {params.T}",
        f"# seed: {params.seed}",
        f"# mode: {params.mode}",
        f"# selection: {_selection_line(params.selection)}",
        f"# snapshot_every: {params.snapshot_every}",
    ]
    if trajectory.stopped_at is not None:
        lines.append(f"# stopped_at: {trajectory.stopped_at}")
    init = np.asarray(trajectory.snapshots[0].points, dtype=float)
    if dim == 1:
        lines += [f"# init: {x!r}" for x in init.tolist()]
    else:
        lines += [f"# init: {x!r} {y!r}" for x, y in zip(*init.T.tolist())]
    if dim == 1:
        cols = "step,chosen,removed" + ("" if thinning else ",inserted")
    else:
        cols = ("step,chosen,removed_x,removed_y"
                + ("" if thinning else ",inserted_x,inserted_y"))
    lines.append(cols)
    rem = np.asarray(trajectory.removed, dtype=float).reshape(-1, dim)
    ins = None if thinning else \
        np.asarray(trajectory.inserted, dtype=float).reshape(-1, dim)
    for k in range(trajectory.n_events):
        t = int(trajectory.steps[k])
        j = int(trajectory.chosen[k])
        row = [str(t), str(j)] + [f"{float(v)!r}" for v in rem[k]]
        if ins is not None:
            row += [f"{float(v)!r}" for v in ins[k]]
        lines.append(",".join(row))
    return lines


def parse_events(lines):
    """Parse event-record lines back into metadata and arrays.

    Returns a mapping with keys ``space`` (a Space rebuilt from kind and
    size; density grids are not carried by event files), ``N``, ``T``,
    ``seed``, ``mode``, ``snapshot_every``, ``stopped_at`` (or None),
    ``initial`` (list of points), ``steps``, ``chosen``, ``removed`` and
    ``inserted`` (None for thinning runs).
    """
    meta = {}
    initial = []
    body = []
    header = None
    for raw in lines:
        line = raw.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            text = line[1:].strip()
            if text.startswith(FORMAT_NAME):
                ver = text.split()[-1]
                if ver != str(FORMAT_VERSION):
                    raise ConfigError(
                        f"unsupported event-file version {ver}")
                meta["_seen_magic"] = True
            elif ":" in text:
                key, _, val = text.partition(":")
                key = key.strip()
                val = val.strip()
                if key == "init":
                    initial.append(val)
                else:
                    meta[key] = val
            continue
        if header is None:
            header = line
            continue
        body.append(line)
    if "_seen_magic" not in meta:
        raise ConfigError("not an event file (missing format line)")
    if "space" not in meta:
        raise ConfigError("event file lacks a space line")
    kind, size_text = meta["space"].split()
    space = Space(kind, float(size_text))
    dim = 1 if kind in KINDS_1D else 2
    if dim == 1:
        init_pts = [float(s) for s in initial]
    else:
        init_pts = [tuple(float(v) for v in s.split()) for s in initial]
    mode = meta.get("mode", "replacement")
    thinning = mode == "thinning"
    n_ev = len(body)
    steps = np.empty(n_ev, dtype=np.int64)
    chosen = np.empty(n_ev, dtype=np.int64)
    removed = np.empty((n_ev, dim))
    inserted = None if thinning else np.empty((n_ev, dim))
    for k, line in enumerate(body):
        parts = line.split(",")
        want = 2 + dim * (1 if thinning else 2)
        if len(parts) != want:
            raise ConfigError(f"event row {k + 1} has {len(parts)} fields, "
                              f"expected {want}")
        steps[k] = int(parts[0])
        chosen[k] = int(parts[1])
        removed[k] = [float(v) for v in parts[2:2 + dim]]
        if inserted is not None:
            inserted[k] = [float(v) for v in parts[2 + dim:2 + 2 * dim]]
    out = {
        "space": space,
        "N": int(meta["N"]) if "N" in meta else len(init_pts),
        "T": int(meta["T"]) if "T" in meta else n_ev,
        "seed": int(meta.get("seed", 0)),
        "mode": mode,
        "snapshot_every": int(meta.get("snapshot_every", 1024)),
        "stopped_at": int(meta["stopped_at"]) if "stopped_at" in meta
        else None,
        "initial": init_pts,
        "steps": steps,
        "chosen": chosen,
        "removed": removed,
        "inserted": inserted,
    }
    return out
