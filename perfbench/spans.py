"""Spans recorded around calls into vorsim's modules, and the per-layer
report computed from them.

The tracer replaces module attributes and class methods with wrappers
that record ``(name, start, end, parent, error)`` into an in-memory list;
nothing is written until the run ends.  A target the package no longer
has stops the run with an error: left unwrapped, its metrics
would read 0 and look like a gain.  ``uninstall`` puts every original
back.

Calls are named after the module that defines them, wherever the caller
looks them up: ``engine2d.insert`` is ``Engine2D.insert`` and
``predicates.incircle`` is the ``incircle`` that ``engine2d`` imported.
"""

import time

import vorsim.cli
import vorsim.engine1d
import vorsim.engine2d
import vorsim.predicates
import vorsim.process
import vorsim.space
import vorsim.tessellation

_perf = time.perf_counter

# (owner, attribute, span name)
TARGETS = (
    (vorsim.cli, "cmd_simulate", "cli.simulate"),
    (vorsim.cli, "_snapshot_csv_lines", "cli.snapshot_rows"),
    (vorsim.cli, "_final_statistics", "cli.final_statistics"),
    (vorsim.cli, "events_lines", "events.events_lines"),
    (vorsim.cli, "pattern_summary", "statistics.pattern_summary"),
    (vorsim.cli, "estimate_drift", "statistics.estimate_drift"),
    (vorsim.process, "initial_configuration", "process.initial_configuration"),
    (vorsim.space.Space, "sample_mu", "space.sample_mu"),
    (vorsim.tessellation, "build", "tessellation.build"),
    (vorsim.tessellation.Tessellation, "build", "tessellation.Tessellation.build"),
    (vorsim.tessellation.Tessellation, "replace_point", "tessellation.replace_point"),
    (vorsim.tessellation.Tessellation, "remove_point", "tessellation.remove_point"),
    (vorsim.tessellation.Tessellation, "cell_volumes", "tessellation.cell_volumes"),
    (vorsim.tessellation.Tessellation, "degrees", "tessellation.degrees"),
    (vorsim.tessellation.Tessellation, "volumes_at", "tessellation.volumes_at"),
    (vorsim.tessellation.Tessellation, "degrees_at", "tessellation.degrees_at"),
    (vorsim.tessellation, "build_engine", "engine2d.build_engine"),
    (vorsim.tessellation, "clip_polygon_halfplane", "geom2d.clip"),
    (vorsim.tessellation, "halfplane_area", "geom2d.clip"),
    (vorsim.engine1d.Engine1D, "insert", "engine1d.insert"),
    (vorsim.engine1d.Engine1D, "delete", "engine1d.delete"),
    (vorsim.engine1d.Engine1D, "cell_bounds", "engine1d.cell_bounds"),
    (vorsim.engine2d.Engine2D, "insert", "engine2d.insert"),
    (vorsim.engine2d.Engine2D, "delete", "engine2d.delete"),
    (vorsim.engine2d.Engine2D, "cell_scan", "engine2d.cell_scan"),
    (vorsim.engine2d.Engine2D, "validate", "engine2d.validate"),
    (vorsim.engine2d, "incircle", "predicates.incircle"),
    (vorsim.engine2d, "orient2d", "predicates.orient2d"),
    (vorsim.predicates, "_incircle_exact", "predicates.exact"),
    (vorsim.predicates, "orient2d_exact", "predicates.exact"),
)

ABORT_REASONS = (
    ("star_visits_triangle_twice", "star visits a triangle twice"),
    ("link_touches_period", "link touches another period of the vertex"),
    ("cavity_ring_touches_period", "cavity ring touches its own period"),
    ("cavity_meets_itself", "cavity meets itself around the torus"),
)

PER_LAYER = (
    ("process.self_us_per_step", "us"),
    ("process.snapshot_ms", "ms"),
    ("space.draws_per_step", "1"),
    ("tessellation.replace_point_us", "us"),
    ("tessellation.remove_point_us", "us"),
    ("tessellation.refresh_us_per_cell", "us"),
    ("tessellation.cells_refreshed_per_step", "1"),
    ("tessellation.rebuilds", "1"),
    ("tessellation.rebuild_ms", "ms"),
    ("tessellation.build_s", "s"),
    ("tessellation.first_stats_s", "s"),
    ("tessellation.final_build_s", "s"),
    ("engine1d.insert_us", "us"),
    ("engine1d.delete_us", "us"),
    ("engine2d.insert_us", "us"),
    ("engine2d.delete_us", "us"),
    ("engine2d.cell_scan_us", "us"),
    ("engine2d.cell_scans_per_step", "1"),
    ("engine2d.local_update_ok", "share"),
) + tuple((f"engine2d.abort.{key}", "1") for key, _ in ABORT_REASONS) + (
    ("engine2d.abort.other", "1"),
    ("engine2d.build_engine_s", "s"),
    ("engine2d.validate_s", "s"),
    ("predicates.incircle_per_step", "1"),
    ("predicates.orient2d_per_step", "1"),
    ("predicates.exact_per_step", "1"),
    ("predicates.us_per_step", "us"),
    ("geom2d.clips_per_step", "1"),
    ("statistics.pattern_summary_s", "s"),
    ("statistics.estimate_drift_s", "s"),
    ("events.events_lines_s", "s"),
    ("trace.overhead_pct", "%"),
)

# per-layer metrics that are counts: they must repeat exactly for a seed
COUNTS = tuple(name for name, unit in PER_LAYER if unit == "1")

_MUTATIONS = ("tessellation.replace_point", "tessellation.remove_point")
_REFRESH = ("tessellation.volumes_at", "tessellation.degrees_at")


class Tracer:
    """Records spans around the calls listed in ``TARGETS``."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._saved = []

    def install(self):
        missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in TARGETS
                   if _lookup(owner, attr) is None]
        if missing:
            raise RuntimeError("cannot trace missing calls: "
                                + ", ".join(missing)
                                + "; update TARGETS in perfbench/spans.py")
        for owner, attr, name in TARGETS:
            raw = _lookup(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(raw.__func__, name)))
            else:
                setattr(owner, attr, self.wrap(raw, name))

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    def wrap(self, fn, name):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            err = None
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                err = str(exc)
                raise
            finally:
                t1 = _perf()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, err)

        traced.__wrapped__ = fn
        return traced


def _lookup(owner, attr):
    """The attribute as stored: a class's own, or a module's."""
    if isinstance(owner, type):
        return owner.__dict__.get(attr)
    return getattr(owner, attr, None)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def _chain_totals(spans):
    """Sums and counts of one traced ``run``, to be added over chains.

    The chain phase starts at the first tessellation mutation made by
    ``run``; everything of ``run`` before it is set-up, as in ``setup_s``.
    """
    names = [s[0] for s in spans]
    run_idx = names.index("process.run")
    run_span = spans[run_idx]
    t_chain = next(s[1] for s in spans
                   if s[0] in _MUTATIONS and s[3] == run_idx)

    def dur(s):
        return s[2] - s[1]

    chain = [s for s in spans if s[1] >= t_chain and s[2] <= run_span[2]]
    setup = [s for s in spans if run_span[1] <= s[1] < t_chain]
    by_name = {}
    for s in chain:
        by_name.setdefault(s[0], []).append(s)

    def chain_of(name):
        return by_name.get(name, [])

    def calls(name, where=None):
        got = [s for s in chain_of(name) if where is None or s[3] in where]
        return [sum(dur(s) for s in got), len(got)]

    t = {}
    run_children = [s for s in chain if s[3] == run_idx]
    t["run_self"] = (run_span[2] - t_chain) - sum(dur(s) for s in run_children)
    t["snapshot"] = [sum(dur(s) for s in run_children
                         if s[0] in ("tessellation.cell_volumes",
                                     "tessellation.degrees")),
                     sum(1 for s in run_children
                         if s[0] == "tessellation.cell_volumes")]
    # step 1 draws before the first mutation; the initial configuration's
    # draws are children of ``initial_configuration``, not of ``run``
    t["draws"] = sum(1 for s in spans
                     if s[0] == "space.sample_mu" and s[3] == run_idx)
    t["replace_point"] = calls("tessellation.replace_point")
    t["remove_point"] = calls("tessellation.remove_point")
    refresh_idx = {i for i, s in enumerate(spans)
                   if s[0] in _REFRESH and s[1] >= t_chain}
    t["refresh"] = [sum(dur(spans[i]) for i in refresh_idx),
                    sum(1 for s in chain
                        if s[0] in ("engine2d.cell_scan", "engine1d.cell_bounds")
                        and s[3] in refresh_idx)]
    t["rebuild"] = calls("engine2d.build_engine")
    build_idx = {i for i, s in enumerate(spans)
                 if s[0] == "tessellation.Tessellation.build"
                 and s[3] == run_idx and s[1] < t_chain}
    t["build"] = sum(dur(spans[i]) for i in build_idx)
    t["first_stats"] = sum(
        dur(s) for s in setup if s[3] == run_idx
        and s[0] in ("tessellation.cell_volumes", "tessellation.degrees"))
    mutation_idx = {i for i, s in enumerate(spans)
                    if s[0] in _MUTATIONS and s[1] >= t_chain}
    for layer in ("engine1d", "engine2d"):
        for op in ("insert", "delete"):
            t[f"{layer}.{op}"] = calls(f"{layer}.{op}", mutation_idx)
    t["cell_scan"] = calls("engine2d.cell_scan")
    updates = [s for s in chain
               if s[0] in ("engine2d.insert", "engine2d.delete")
               and s[3] in mutation_idx]
    failed = [s[4] for s in updates if s[4] is not None]
    t["updates"] = [len(updates) - len(failed), len(updates)]
    other = len(failed)
    for key, text in ABORT_REASONS:
        k = sum(1 for msg in failed if msg == text)
        t[f"abort.{key}"] = k
        other -= k
    t["abort.other"] = other
    engines = [i for i, s in enumerate(spans)
               if s[0] == "engine2d.build_engine" and s[3] in build_idx]
    t["build_engine"] = sum(dur(spans[i]) for i in engines)
    engine_set = set(engines)
    t["validate"] = sum(dur(s) for s in spans
                        if s[0] == "engine2d.validate" and s[3] in engine_set)
    incircle = calls("predicates.incircle")
    orient = calls("predicates.orient2d")
    t["incircle"] = incircle[1]
    t["orient2d"] = orient[1]
    t["predicates_time"] = incircle[0] + orient[0]
    t["exact"] = len(chain_of("predicates.exact"))
    t["clips"] = len(chain_of("geom2d.clip"))
    return t


def _add(a, b):
    if isinstance(a, list):
        return [x + y for x, y in zip(a, b)]
    return a + b


def chain_report(span_lists, n_steps):
    """Per-layer metrics of one round of traced ``run`` calls.

    ``span_lists`` holds the spans of each chain of the round and
    ``n_steps`` their events together.  Step 1's selection counts as
    set-up, and times "per step" divide the chain phases by all
    ``n_steps`` events.  Counts and set-up times are the round's totals;
    times per call are means over all the round's calls.
    """
    t = None
    for spans in span_lists:
        one = _chain_totals(spans)
        t = one if t is None else {k: _add(t[k], v) for k, v in one.items()}
    per_step = 1.0 / n_steps
    out = {
        "process.self_us_per_step": 1e6 * t["run_self"] * per_step,
        "process.snapshot_ms": _ratio(*t["snapshot"], 1e3),
        "space.draws_per_step": t["draws"] * per_step,
        "tessellation.replace_point_us": _ratio(*t["replace_point"], 1e6),
        "tessellation.remove_point_us": _ratio(*t["remove_point"], 1e6),
        "tessellation.refresh_us_per_cell": _ratio(*t["refresh"], 1e6),
        "tessellation.cells_refreshed_per_step": t["refresh"][1] * per_step,
        "tessellation.rebuilds": t["rebuild"][1],
        "tessellation.rebuild_ms": _ratio(*t["rebuild"], 1e3),
        "tessellation.build_s": t["build"],
        "tessellation.first_stats_s": t["first_stats"],
    }
    for layer in ("engine1d", "engine2d"):
        for op in ("insert", "delete"):
            out[f"{layer}.{op}_us"] = _ratio(*t[f"{layer}.{op}"], 1e6)
    out["engine2d.cell_scan_us"] = _ratio(*t["cell_scan"], 1e6)
    out["engine2d.cell_scans_per_step"] = t["cell_scan"][1] * per_step
    ok, updates = t["updates"]
    out["engine2d.local_update_ok"] = ok / updates if updates else 1.0
    for key, _ in ABORT_REASONS:
        out[f"engine2d.abort.{key}"] = t[f"abort.{key}"]
    out["engine2d.abort.other"] = t["abort.other"]
    out["engine2d.build_engine_s"] = t["build_engine"]
    out["engine2d.validate_s"] = t["validate"]
    out["predicates.incircle_per_step"] = t["incircle"] * per_step
    out["predicates.orient2d_per_step"] = t["orient2d"] * per_step
    out["predicates.exact_per_step"] = t["exact"] * per_step
    out["predicates.us_per_step"] = 1e6 * t["predicates_time"] * per_step
    out["geom2d.clips_per_step"] = t["clips"] * per_step
    return out


def analysis_report(span_lists):
    """Per-layer metrics of one round of traced ``vorsim simulate`` calls
    after their chains: times summed over the round."""
    reports = [_analysis_one(spans) for spans in span_lists]
    return {k: sum(r[k] for r in reports) for k in reports[0]}


def _analysis_one(spans):
    def total(name, parents=None):
        return sum(s[2] - s[1] for s in spans if s[0] == name
                   and (parents is None or s[3] in parents))

    final_stats = {i for i, s in enumerate(spans)
                   if s[0] == "cli.final_statistics"}
    return {
        "tessellation.final_build_s": total("tessellation.build", final_stats),
        "statistics.pattern_summary_s": total("statistics.pattern_summary"),
        "statistics.estimate_drift_s": total("statistics.estimate_drift"),
        "events.events_lines_s": total("events.events_lines"),
    }
