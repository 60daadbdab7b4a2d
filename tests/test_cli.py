"""Command-line interface end to end."""

import dataclasses
import os

import numpy as np
import pytest
import yaml

from helpers import snapshot_rows_reference
from vorsim.cli import _snapshot_csv_lines, main
from vorsim.process import ProcessParams, SelectionSpec, Snapshot, run
from vorsim.space import Space

CONFIG_1D = {
    "schema_version": 1,
    "space": {"kind": "circle", "size": 1.0},
    "process": {"N": 32, "T": 256, "seed": 0,
                "selection": {"kind": "volume_power", "alpha": 1.2}},
    "statistics": {"region": [0.0, 0.25], "f_resolution": 20000,
                   "min_bin_count": 5},
    "output": {"raster_bins": 64, "snapshot_every": 64},
}

CONFIG_2D = {
    "schema_version": 1,
    "space": {"kind": "torus", "size": 1.0},
    "process": {"N": 40, "T": 120, "seed": 2,
                "selection": {"kind": "volume_power", "alpha": 0.5}},
    "statistics": {"f_resolution": 20000},
    "output": {"raster_bins": 32, "snapshot_every": 40},
}


def _write_config(tmp_path, cfg, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_simulate_writes_all_outputs_1d(tmp_path, capsys):
    cfgp = _write_config(tmp_path, CONFIG_1D)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfgp, "--out-dir", out]) == 0
    for name in ("events.txt", "snapshots.csv", "summary.csv",
                 "spacetime.pgm", "drift.csv"):
        assert os.path.exists(os.path.join(out, name)), name
    msg = capsys.readouterr().out
    assert "simulate: circle N=32 T=256" in msg
    assert "seed=0" in msg
    # the seed came from the config file, not from a fallback default
    assert "(default)" not in msg
    header = _read(os.path.join(out, "spacetime.pgm")).split(b"\n", 2)
    assert header[0] == b"P5"
    assert header[1] == b"64 256"


def test_simulate_reruns_are_byte_identical(tmp_path):
    cfgp = _write_config(tmp_path, CONFIG_1D)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", cfgp, "--out-dir", out_a]) == 0
    assert main(["simulate", "--config", cfgp, "--out-dir", out_b]) == 0
    for name in ("events.txt", "snapshots.csv", "summary.csv",
                 "spacetime.pgm", "drift.csv"):
        assert _read(os.path.join(out_a, name)) == \
            _read(os.path.join(out_b, name)), name


def test_simulate_2d_snapshot_raster(tmp_path):
    cfgp = _write_config(tmp_path, CONFIG_2D)
    out = str(tmp_path / "out2")
    assert main(["simulate", "--config", cfgp, "--out-dir", out]) == 0
    header = _read(os.path.join(out, "snapshot.pgm")).split(b"\n", 2)
    assert header[1] == b"32 32"
    assert not os.path.exists(os.path.join(out, "drift.csv"))


def test_simulate_thinning_to_one_survivor_skips_summary(tmp_path, capsys):
    cfg = dict(CONFIG_1D)
    cfg["process"] = dict(CONFIG_1D["process"], N=16, T=100,
                          mode="thinning")
    cfgp = _write_config(tmp_path, cfg)
    out = str(tmp_path / "thin")
    assert main(["simulate", "--config", cfgp, "--out-dir", out]) == 0
    msg = capsys.readouterr().out
    assert "events=15" in msg
    assert "summary skipped (needs at least two points)" in msg
    assert not os.path.exists(os.path.join(out, "summary.csv"))
    # the drift step still runs on the thinning events
    assert "fitted_K=" in msg or "drift skipped" in msg


@pytest.mark.parametrize("size", [1.0, 1e9])
def test_simulate_summarises_two_cells_of_nearly_equal_volume(tmp_path,
                                                              size):
    # the two torus cells are half the torus up to the last bits, a
    # volume range too narrow for 16 finite histogram bins; at size 1e9
    # a widening by 0.5 is below the volumes' ulp
    cfg = {"schema_version": 1,
           "space": {"kind": "torus", "size": size},
           "process": {"N": 2, "T": 200, "seed": 6,
                       "selection": {"kind": "volume_power", "alpha": 1.0}}}
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", _write_config(tmp_path, cfg),
                 "--out-dir", out]) == 0
    with open(os.path.join(out, "summary.csv")) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    counts = [int(c) for table, _, c in rows if table == "volume_bin"]
    assert len(counts) == 16 and sum(counts) == 2


def test_simulate_skips_a_drift_fit_with_only_the_empty_region_bin(
        tmp_path, capsys):
    # the region [0, 0.5] empties early, so every later event falls in the
    # N_A = 0 bin, the only one with 50 events: there is nothing to fit
    cfg = {"schema_version": 1,
           "space": {"kind": "interval", "size": 1.0,
                     "density": [1.0, 3.0, 0.5, 2.0]},
           "process": {"N": 500, "T": 499, "seed": 4, "mode": "thinning",
                       "selection": {"kind": "volume_power", "alpha": 1.5}},
           "statistics": {"region": [0.0, 0.5]}}
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", _write_config(tmp_path, cfg),
                 "--out-dir", out]) == 0
    msg = capsys.readouterr().out
    assert "drift skipped (no N_A > 0 bin reaches 50 events)" in msg
    assert "fitted_K" not in msg
    assert not os.path.exists(os.path.join(out, "drift.csv"))


@pytest.mark.parametrize("kind, mode", [
    ("circle", "replacement"), ("interval", "replacement"),
    ("square", "replacement"), ("torus", "replacement"),
    ("interval", "thinning"), ("square", "thinning")])
def test_snapshot_table_equals_the_row_by_row_reference(kind, mode):
    params = ProcessParams(N=60, T=80, mode=mode,
                           selection=SelectionSpec("volume_power", alpha=0.5),
                           space=Space(kind, 1.0), seed=6, snapshot_every=10)
    tr = run(params)
    assert len(tr.snapshots) >= 6
    dim = params.space.dim
    assert "\n".join(_snapshot_csv_lines(tr, dim)) == \
        "\n".join(snapshot_rows_reference(tr, dim))


@pytest.mark.parametrize("kind", ["circle", "torus"])
def test_snapshot_table_reformats_rows_that_change_in_any_column(kind):
    params = ProcessParams(N=30, T=5, mode="replacement",
                           selection=SelectionSpec("volume_power", alpha=1.0),
                           space=Space(kind, 1.0), seed=7, snapshot_every=5)
    tr = run(params)
    s0 = tr.snapshots[0]
    pts, vols, degs = s0.points.copy(), s0.volumes.copy(), s0.degrees.copy()
    pts.flat[-1] = np.nextafter(pts.flat[-1], 2.0)
    vols[3] = np.nextafter(vols[3], 0.0)
    degs[5] += 1
    snaps = [s0, Snapshot(1, s0.points, s0.volumes, s0.degrees),
             Snapshot(2, s0.points, s0.volumes, s0.degrees),
             Snapshot(3, pts, s0.volumes, s0.degrees),
             Snapshot(4, pts, vols, s0.degrees),
             Snapshot(5, pts, vols, degs),
             Snapshot(6, s0.points[:-1], s0.volumes[:-1], s0.degrees[:-1])]
    tr = dataclasses.replace(tr, snapshots=snaps)
    dim = params.space.dim
    # each changed value is one ulp or one count away from the row reused
    # before it, so a missed change leaves the earlier text in the table
    assert "\n".join(_snapshot_csv_lines(tr, dim)) == \
        "\n".join(snapshot_rows_reference(tr, dim))


def test_seed_flag_overrides_and_is_reported(tmp_path, capsys):
    cfg = dict(CONFIG_1D)
    cfg["process"] = dict(CONFIG_1D["process"])
    del cfg["process"]["seed"]
    cfgp = _write_config(tmp_path, cfg)
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", cfgp, "--out-dir", out]) == 0
    assert "seed=0 (default)" in capsys.readouterr().out
    assert main(["simulate", "--config", cfgp, "--out-dir", out,
                 "--seed", "7"]) == 0
    msg = capsys.readouterr().out
    assert "seed=7" in msg and "(default)" not in msg


def test_invalid_config_values_fail_with_named_key(tmp_path, capsys):
    cfgp = _write_config(tmp_path, CONFIG_1D)
    out = str(tmp_path / "o")
    rc = main(["simulate", "--config", cfgp, "--out-dir", out,
               "--override", "process.T=0"])
    assert rc == 1
    assert "process.T" in capsys.readouterr().err

    rc = main(["simulate", "--config", cfgp, "--out-dir", out,
               "--override", "process.nope=1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nope" in err


@pytest.mark.parametrize("region", [[0.5, 0.2], [0.0, 1.5], [0.2],
                                    [0.0, 0.5, 0.0, 0.5]])
def test_simulate_rejects_a_bad_region_before_the_chain(tmp_path, capsys,
                                                        region):
    cfg = dict(CONFIG_1D, statistics={"region": region})
    cfgp = _write_config(tmp_path, cfg)
    out = str(tmp_path / "o")
    rc = main(["simulate", "--config", cfgp, "--out-dir", out])
    assert rc == 1
    assert "region" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "events.txt"))


def test_render_reproduces_simulated_raster(tmp_path, capsys):
    cfgp = _write_config(tmp_path, CONFIG_1D)
    out = str(tmp_path / "sim")
    assert main(["simulate", "--config", cfgp, "--out-dir", out]) == 0
    ren = str(tmp_path / "ren")
    assert main(["render", os.path.join(out, "events.txt"),
                 "--kind", "spacetime", "--bins", "64",
                 "--out-dir", ren]) == 0
    assert _read(os.path.join(ren, "spacetime.pgm")) == \
        _read(os.path.join(out, "spacetime.pgm"))
    assert main(["render", os.path.join(out, "events.txt"),
                 "--kind", "snapshot", "--bins", "48",
                 "--out-dir", ren]) == 0
    header = _read(os.path.join(ren, "snapshot.pgm")).split(b"\n", 2)
    assert header[1] == b"48 1"


def test_stats_matches_simulate_summary(tmp_path):
    cfgp = _write_config(tmp_path, CONFIG_1D)
    out_a, out_b = str(tmp_path / "sim"), str(tmp_path / "sta")
    assert main(["simulate", "--config", cfgp, "--out-dir", out_a]) == 0
    assert main(["stats", "--config", cfgp, "--out-dir", out_b]) == 0
    assert _read(os.path.join(out_a, "summary.csv")) == \
        _read(os.path.join(out_b, "summary.csv"))
    assert not os.path.exists(os.path.join(out_b, "events.txt"))


def test_sweep_outputs_sorted_rows(tmp_path):
    cfg = dict(CONFIG_2D)
    cfg["sweep"] = {"alphas": [1.3, -1.0]}
    cfgp = _write_config(tmp_path, cfg)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", cfgp, "--out-dir", out,
                 "--override", "process.T=100"]) == 0
    lines = _read(os.path.join(out, "sweep.csv")).decode().splitlines()
    assert lines[0] == "alpha,final_index,avg_index,thiel_R,collapse_time"
    alphas = [float(l.split(",")[0]) for l in lines[1:]]
    assert alphas == sorted(alphas) == [-1.0, 1.3]
    for a in ("-1.0", "1.3"):
        assert os.path.exists(os.path.join(out, f"snapshot_alpha_{a}.csv"))
        assert os.path.exists(os.path.join(out, f"snapshot_alpha_{a}.pgm"))


def test_sweep_alphas_flag_overrides_config(tmp_path):
    cfg = dict(CONFIG_2D)
    cfg["sweep"] = {"alphas": [0.5]}
    cfgp = _write_config(tmp_path, cfg)
    out = str(tmp_path / "sweep2")
    assert main(["sweep", "--config", cfgp, "--out-dir", out,
                 "--alphas", "0.2,1.1",
                 "--override", "process.T=100"]) == 0
    lines = _read(os.path.join(out, "sweep.csv")).decode().splitlines()
    alphas = [float(l.split(",")[0]) for l in lines[1:]]
    assert alphas == [0.2, 1.1]


def _assert_numeric_csv(path):
    lines = _read(path).decode().splitlines()
    assert len(lines) > 1
    for line in lines[1:]:
        for field in line.split(","):
            float(field)


def test_2d_point_csvs_hold_plain_numbers(tmp_path):
    # numpy scalars must not leak their repr ("np.float64(0.5)") into a
    # table
    cfgp = _write_config(tmp_path, CONFIG_2D)
    out = str(tmp_path / "torus")
    assert main(["simulate", "--config", cfgp, "--out-dir", out]) == 0
    _assert_numeric_csv(os.path.join(out, "snapshots.csv"))
    cfg = dict(CONFIG_2D, space={"kind": "square", "size": 1.0},
               sweep={"alphas": [0.5]})
    cfgp = _write_config(tmp_path, cfg, name="sweep.yaml")
    out = str(tmp_path / "square")
    assert main(["sweep", "--config", cfgp, "--out-dir", out,
                 "--override", "process.T=40"]) == 0
    _assert_numeric_csv(os.path.join(out, "snapshot_alpha_0.5.csv"))


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all" in out and "passed" in out


def test_missing_required_arguments_exit_with_usage():
    with pytest.raises(SystemExit):
        main(["simulate"])
    with pytest.raises(SystemExit):
        main([])
