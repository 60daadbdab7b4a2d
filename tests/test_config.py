"""Config validation, overrides and parameter construction."""

import numpy as np
import pytest

from helpers import dump_config
from vorsim.config import (SCHEMA_VERSION, apply_override, build_params,
                           build_selection, build_space, load_config,
                           stats_options, validate_config)
from vorsim.errors import ConfigError

MINIMAL = {
    "schema_version": 1,
    "space": {"kind": "circle", "size": 1.0},
    "process": {"N": 16, "T": 100,
                "selection": {"kind": "volume_power", "alpha": 0.5}},
}


def _minimal():
    import copy
    return copy.deepcopy(MINIMAL)


def test_defaults_filled_in():
    cfg = validate_config(_minimal())
    assert cfg["process"]["mode"] == "replacement"
    assert cfg["process"]["init"] == "iid_mu"
    assert cfg["process"]["seed"] == 0
    assert cfg["output"]["directory"] == "out"
    assert cfg["output"]["snapshot_every"] == 1024
    assert cfg["output"]["raster_bins"] == 256
    assert SCHEMA_VERSION == 1


def test_unknown_keys_are_named():
    cfg = _minimal()
    cfg["process"]["bogus"] = 3
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert "bogus" in str(err.value) and "process" in str(err.value)

    cfg = _minimal()
    cfg["extra_block"] = {}
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert "extra_block" in str(err.value)


def test_missing_and_invalid_values_are_named():
    cfg = _minimal()
    del cfg["process"]["N"]
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert "N" in str(err.value)

    cfg = _minimal()
    cfg["process"]["T"] = 0
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert "process.T" in str(err.value)

    cfg = _minimal()
    cfg["schema_version"] = 99
    with pytest.raises(ConfigError):
        validate_config(cfg)


@pytest.mark.parametrize("key, value", [
    ("volume_bins", 0), ("grid_n", "x"), ("f_resolution", -5),
    ("r_grid", 0.1), ("r_grid", ["a"])])
def test_statistics_values_are_checked_before_the_chain(key, value):
    cfg = _minimal()
    cfg["statistics"] = {key: value}
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert f"statistics.{key}" in str(err.value)


def test_statistics_value_ranges():
    for key, value in (("min_bin_count", 0), ("grid_n", 1),
                       ("volume_bins", True), ("f_resolution", 2.0),
                       ("r_grid", [0.1, -0.1]), ("r_grid", [float("nan")]),
                       ("r_grid", [float("inf")]), ("r_grid", [True])):
        cfg = _minimal()
        cfg["statistics"] = {key: value}
        with pytest.raises(ConfigError):
            validate_config(cfg)
    for r_grid in (None, [], [0, 0.05, 1]):
        cfg = _minimal()
        cfg["statistics"] = {"r_grid": r_grid, "grid_n": 2}
        assert validate_config(cfg)["statistics"]["r_grid"] == r_grid


def test_dump_and_load_round_trip(tmp_path):
    cfg = validate_config(_minimal())
    path = tmp_path / "run.yaml"
    path.write_text(dump_config(cfg))
    again = load_config(str(path))
    assert again == cfg


def test_overrides_parse_yaml_values():
    cfg = validate_config(_minimal())
    cfg = apply_override(cfg, "process.T=500")
    assert cfg["process"]["T"] == 500
    cfg = apply_override(cfg, "output.raster=false")
    assert cfg["output"]["raster"] is False
    cfg = apply_override(cfg, "process.selection.alpha=1.25")
    assert cfg["process"]["selection"]["alpha"] == 1.25
    with pytest.raises(ConfigError):
        apply_override(cfg, "process.T")  # no value
    # an override inventing a key is caught by validation afterwards
    bad = apply_override(cfg, "process.missing=1")
    with pytest.raises(ConfigError) as err:
        validate_config(bad)
    assert "missing" in str(err.value)


def test_load_config_applies_overrides(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(dump_config(validate_config(_minimal())))
    cfg = load_config(str(path), overrides=("process.seed=7",))
    assert cfg["process"]["seed"] == 7


def test_build_space_and_selection():
    cfg = validate_config(_minimal())
    space = build_space(cfg)
    assert space.kind == "circle" and space.size == 1.0
    sel = build_selection(cfg)
    assert sel.kind == "volume_power" and sel.alpha == 0.5


def test_build_params_seed_precedence():
    cfg = validate_config(_minimal())
    params = build_params(cfg)
    assert params.seed == 0
    assert params.N == 16 and params.T == 100
    assert params.snapshot_every == cfg["output"]["snapshot_every"]
    params = build_params(cfg, seed=42)
    assert params.seed == 42


def test_build_params_density_grids():
    cfg = _minimal()
    cfg["space"] = {"kind": "interval", "size": 2.0, "density": [2.0, 1.0]}
    params = build_params(validate_config(cfg))
    assert params.space.kind == "interval"
    assert params.space.density is not None
    assert params.space.total_measure() == pytest.approx(3.0)


def test_stats_options_defaults_and_region():
    opts = stats_options(validate_config(_minimal()))
    assert opts["grid_n"] == 10
    assert opts["f_resolution"] == 100_000
    assert opts["region"] is None

    cfg = _minimal()
    cfg["statistics"] = {"region": [0.0, 0.5], "grid_n": 6}
    opts = stats_options(validate_config(cfg))
    assert opts["region"] == [0.0, 0.5]
    assert opts["grid_n"] == 6


@pytest.mark.parametrize("kind,size,region,message", [
    ("circle", 1.0, [0.5, 0.2], "region span (0.5, 0.2) must be ascending "
                                "inside the chart [0, 1.0]"),
    ("interval", 2, [0.0, 2.5], "region span (0.0, 2.5) must be ascending "
                                "inside the chart [0, 2.0]"),
    ("circle", 1.0, [-0.1, 0.5], "region span (-0.1, 0.5) must be "
                                 "ascending inside the chart [0, 1.0]"),
    ("circle", 1.0, [0.3, 0.3], "region span (0.3, 0.3) must be ascending "
                                "inside the chart [0, 1.0]"),
    ("circle", 1.0, [0.1], "a 1D region needs bounds (a, b)"),
    ("circle", 1.0, [0.0, 0.5, 0.0, 0.5], "a 1D region needs bounds (a, b)"),
    ("torus", 1.0, [0.0, 0.5], "a 2D region needs bounds (x0, x1, y0, y1)"),
    ("square", 1.0, [0.0, 0.5, 0.6, 0.4], "region span (0.6, 0.4) must be "
                                          "ascending inside the chart "
                                          "[0, 1.0]"),
    ("circle", 1.0, [0.0, "a"], "statistics.region must be null or a list "
                                "of numbers"),
    ("circle", 1.0, [0.0, True], "statistics.region must be null or a list "
                                 "of numbers"),
    ("circle", 1.0, 0.5, "statistics.region must be null or a list of "
                         "numbers"),
])
def test_bad_region_fails_validation(kind, size, region, message):
    cfg = _minimal()
    cfg["space"] = {"kind": kind, "size": size}
    cfg["statistics"] = {"region": region}
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert str(err.value) == message


def test_region_check_gives_the_test_regions_message():
    from vorsim.space import Space
    from vorsim.statistics import TestRegion
    for kind, region in (("interval", [0.8, 0.2]),
                         ("square", [0.0, 1.2, 0.0, 1.0]),
                         ("circle", [0.0, 0.5, 0.0, 0.5])):
        cfg = _minimal()
        cfg["space"] = {"kind": kind, "size": 1.0}
        cfg["statistics"] = {"region": region}
        with pytest.raises(ConfigError) as at_validation:
            validate_config(cfg)
        with pytest.raises(ConfigError) as at_region:
            TestRegion(Space(kind, 1.0), region)
        assert str(at_validation.value) == str(at_region.value)


def test_selection_contents_checked_at_build_time():
    # structural validation accepts any known selection keys; semantic
    # checks happen when the SelectionSpec is constructed
    cfg = _minimal()
    cfg["process"]["selection"] = {"kind": "volume_power"}
    cfg = validate_config(cfg)
    with pytest.raises(ConfigError):
        build_selection(cfg)
    cfg = _minimal()
    cfg["process"]["selection"] = {"kind": "volume_table",
                                   "breakpoints": [0.5, 0.5],
                                   "values": [1.0]}
    cfg = validate_config(cfg)
    with pytest.raises(ConfigError):
        build_selection(cfg)
    cfg = _minimal()
    cfg["process"]["selection"]["unknown_option"] = 1
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert "unknown_option" in str(err.value)


def test_sweep_block_round_trip(tmp_path):
    cfg = _minimal()
    cfg["sweep"] = {"alphas": [-1.0, 0.5, 1.3], "grid_n": 8}
    cfg = validate_config(cfg)
    path = tmp_path / "sweep.yaml"
    path.write_text(dump_config(cfg))
    assert load_config(str(path))["sweep"]["alphas"] == [-1.0, 0.5, 1.3]
