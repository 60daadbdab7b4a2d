"""Run-configuration schema: YAML loading, validation, and object building.

A configuration is a nested mapping with an explicit ``schema_version``
and four blocks: ``space``, ``process``, ``statistics`` (optional),
``sweep`` (optional) and ``output`` (optional).  Unknown keys anywhere are
rejected by name, so a typo in an exponent or a point count fails loudly
instead of silently running the wrong experiment.

Overrides of the form ``block.key=value`` (values parsed as YAML scalars)
are applied after loading and re-validated, which is how the command line
adjusts single entries without editing files.
"""

import copy
import math

import yaml

from .errors import ConfigError
from .process import ProcessParams, SelectionSpec
from .space import ALL_KINDS, KINDS_1D, Space, region_bounds

SCHEMA_VERSION = 1

_TOP_KEYS = ("schema_version", "space", "process", "statistics", "sweep",
             "output")
_SPACE_KEYS = ("kind", "size", "density", "mu_density")
_PROCESS_KEYS = ("N", "T", "mode", "selection", "init", "seed")
_SELECTION_KEYS = ("kind", "alpha", "breakpoints", "values")
_STAT_KEYS = ("region", "r_grid", "f_resolution", "grid_n", "volume_bins",
              "min_bin_count")
_SWEEP_KEYS = ("alphas", "grid_n", "burn_in")
_OUTPUT_KEYS = ("directory", "snapshot_every", "events", "snapshots",
                "raster", "raster_bins")

_DEFAULTS = {
    "process": {"mode": "replacement", "init": "iid_mu", "seed": 0},
    "statistics": {"f_resolution": 100_000, "grid_n": 10, "volume_bins": 16,
                   "min_bin_count": 50},
    "output": {"directory": "out", "snapshot_every": 1024, "events": True,
               "snapshots": True, "raster": True, "raster_bins": 256},
}


def _require_mapping(obj, name):
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be a mapping")
    return obj


def _check_keys(block, allowed, name):
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {name}")


def _missing(name):
    raise ConfigError(f"missing required key {name}")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_config(cfg):
    """Validate structure and defaults of a parsed configuration.

    Returns a new mapping with defaults filled in; the input is not
    modified.  Every structural problem names the offending key.
    """
    cfg = copy.deepcopy(_require_mapping(cfg, "configuration"))
    _check_keys(cfg, _TOP_KEYS, "the configuration")
    if "schema_version" not in cfg:
        _missing("schema_version")
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version {cfg['schema_version']!r} is not supported "
            f"(expected {SCHEMA_VERSION})")

    if "space" not in cfg:
        _missing("space")
    sp = _require_mapping(cfg["space"], "space")
    _check_keys(sp, _SPACE_KEYS, "space")
    if "kind" not in sp:
        _missing("space.kind")
    if sp["kind"] not in ALL_KINDS:
        raise ConfigError(f"space.kind {sp['kind']!r} is not one of "
                          f"{', '.join(ALL_KINDS)}")
    sp.setdefault("size", 1.0)
    if not (isinstance(sp["size"], (int, float)) and sp["size"] > 0):
        raise ConfigError("space.size must be a positive number")

    if "process" not in cfg:
        _missing("process")
    pr = _require_mapping(cfg["process"], "process")
    _check_keys(pr, _PROCESS_KEYS, "process")
    for key, dflt in _DEFAULTS["process"].items():
        pr.setdefault(key, dflt)
    for key in ("N", "T"):
        if key not in pr:
            _missing(f"process.{key}")
        if not _is_int(pr[key]):
            raise ConfigError(f"process.{key} must be an integer")
    if pr["N"] < 2:
        raise ConfigError("process.N must be at least 2")
    if pr["T"] < 1:
        raise ConfigError("process.T must be at least 1")
    if not _is_int(pr["seed"]):
        raise ConfigError("process.seed must be an integer")
    if "selection" not in pr:
        _missing("process.selection")
    sel = _require_mapping(pr["selection"], "process.selection")
    _check_keys(sel, _SELECTION_KEYS, "process.selection")
    if "kind" not in sel:
        _missing("process.selection.kind")

    st = cfg.get("statistics")
    if st is not None:
        _require_mapping(st, "statistics")
        _check_keys(st, _STAT_KEYS, "statistics")
        for key, dflt in _DEFAULTS["statistics"].items():
            st.setdefault(key, dflt)
        # checked here, so a bad value fails before the chain runs
        for key in ("f_resolution", "volume_bins", "min_bin_count"):
            if not _is_int(st[key]) or st[key] < 1:
                raise ConfigError(
                    f"statistics.{key} must be a positive integer")
        if not _is_int(st["grid_n"]) or st["grid_n"] < 2:
            raise ConfigError("statistics.grid_n must be an integer of at "
                              "least 2")
        rg = st.get("r_grid")
        if rg is not None and not (
                isinstance(rg, list)
                and all(_is_number(r) and 0 <= r < math.inf for r in rg)):
            raise ConfigError("statistics.r_grid must be null or a list of "
                              "finite numbers >= 0")
        region = st.get("region")
        if region is not None:
            if not (isinstance(region, list)
                    and all(_is_number(v) for v in region)):
                raise ConfigError("statistics.region must be null or a list "
                                  "of numbers")
            # the check TestRegion makes after the chain, made before it
            region_bounds(1 if sp["kind"] in KINDS_1D else 2,
                          float(sp["size"]), region)

    sw = cfg.get("sweep")
    if sw is not None:
        _require_mapping(sw, "sweep")
        _check_keys(sw, _SWEEP_KEYS, "sweep")
        if not sw.get("alphas"):
            raise ConfigError("sweep.alphas must be a non-empty list")

    out = cfg.setdefault("output", {})
    _require_mapping(out, "output")
    _check_keys(out, _OUTPUT_KEYS, "output")
    for key, dflt in _DEFAULTS["output"].items():
        out.setdefault(key, dflt)
    se = out["snapshot_every"]
    if not _is_int(se) or se < 1:
        raise ConfigError("output.snapshot_every must be a positive integer")
    rb = out["raster_bins"]
    if not _is_int(rb) or rb < 1:
        raise ConfigError("output.raster_bins must be a positive integer")
    return cfg


def load_config(path, overrides=()):
    """Read, override and validate a YAML configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from None
    if raw is None:
        raise ConfigError(f"configuration file {path} is empty")
    raw = _require_mapping(raw, "configuration")
    for item in overrides:
        raw = apply_override(raw, item)
    return validate_config(raw)


def apply_override(cfg, item):
    """Apply one ``dotted.path=value`` override; value parsed as YAML."""
    if "=" not in item:
        raise ConfigError(f"override {item!r} is not of the form key=value")
    path, _, text = item.partition("=")
    keys = [k for k in path.strip().split(".") if k]
    if not keys:
        raise ConfigError(f"override {item!r} has an empty key path")
    try:
        value = yaml.safe_load(text)
    except yaml.YAMLError:
        raise ConfigError(f"override value {text!r} is not valid") from None
    cfg = copy.deepcopy(cfg)
    node = cfg
    for k in keys[:-1]:
        nxt = node.setdefault(k, {})
        if not isinstance(nxt, dict):
            raise ConfigError(f"override path {path!r} crosses the scalar "
                              f"entry {k!r}")
        node = nxt
    node[keys[-1]] = value
    return cfg


def stats_options(cfg):
    """Statistics knobs with defaults, whether or not the block exists."""
    out = dict(_DEFAULTS["statistics"])
    out["region"] = None
    out["r_grid"] = None
    block = cfg.get("statistics")
    if block:
        out.update(block)
    return out


def build_space(cfg):
    """Construct the Space described by a validated configuration."""
    sp = cfg["space"]
    return Space(sp["kind"], sp["size"], density=sp.get("density"),
                 mu_density=sp.get("mu_density"))


def build_selection(cfg):
    """Construct the SelectionSpec of a validated configuration."""
    sel = cfg["process"]["selection"]
    return SelectionSpec(sel["kind"], alpha=sel.get("alpha"),
                         breakpoints=sel.get("breakpoints"),
                         values=sel.get("values"))


def build_params(cfg, space=None, seed=None):
    """Construct ProcessParams from a validated configuration.

    ``seed`` overrides the configured seed when given (command-line flag).
    """
    pr = cfg["process"]
    return ProcessParams(
        N=pr["N"], T=pr["T"], mode=pr["mode"],
        selection=build_selection(cfg),
        space=build_space(cfg) if space is None else space,
        init=pr["init"],
        seed=pr["seed"] if seed is None else int(seed),
        snapshot_every=cfg["output"]["snapshot_every"],
    )
