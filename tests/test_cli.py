"""Tests for the command-line front end: config layering, emission, manifests."""

import csv
import json
import subprocess
import sys
import tracemalloc

import pytest

from dstsp_lab import bounds as bnd
from dstsp_lab import cli, hcp, hcs
from dstsp_lab.errors import ConfigError


def _main(argv):
    return cli.main([str(a) for a in argv])


# ------------------------------------------------------------ emit_report


def test_emit_empty_records_gives_header_only_csv(tmp_path):
    path = tmp_path / "empty.csv"
    cli.emit_report([], path, "csv", header=["a", "b", "c"])
    assert path.read_text() == "a,b,c\n"


def test_emit_round_trip(tmp_path):
    path = tmp_path / "r.csv"
    rows = [{"name": "x", "count": 3, "score": 0.125},
            {"name": "y", "count": 4, "score": 2.5}]
    cli.emit_report(rows, path, "csv")
    back = list(csv.DictReader(open(path)))
    assert [r["name"] for r in back] == ["x", "y"]
    assert [int(r["count"]) for r in back] == [3, 4]
    assert [float(r["score"]) for r in back] == [0.125, 2.5]


def test_emit_uses_lf_line_endings(tmp_path):
    path = tmp_path / "lf.csv"
    cli.emit_report([{"a": 1}], path, "csv")
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_emit_json_array(tmp_path):
    path = tmp_path / "r.json"
    rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": 1.5}]
    cli.emit_report(rows, path, "json")
    assert json.load(open(path)) == rows
    empty = tmp_path / "e.json"
    cli.emit_report([], empty, "json", header=["a"])
    assert json.load(open(empty)) == []


def test_emit_streams_a_million_records(tmp_path):
    # The writer must hold one record at a time, not the whole stream.
    path = tmp_path / "big.csv"

    def gen():
        for i in range(1_000_000):
            yield {"i": i, "v": float(i) * 0.5}

    tracemalloc.start()
    cli.emit_report(gen(), path, "csv", header=["i", "v"])
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 40 * 1024 * 1024
    with open(path) as fh:
        assert sum(1 for _ in fh) == 1_000_001


# ------------------------------------------------------- config resolution


def _args(subcommand, **kw):
    parser = cli.build_parser()
    argv = [subcommand]
    for key, val in kw.items():
        flag = "--" + key.replace("_", "-")
        if val is True:
            argv.append("--assert" if key == "assert_checks" else flag)
        else:
            argv.extend([flag, str(val)])
    return parser.parse_args(argv)


def test_flags_override_config_file(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "n": [32], "seed": 1, "seeds": 9,
        "model": {"model": "scaled_euclidean2", "sigma": 2.0},
    }))
    args = _args("run-dstsp", config=cfgfile, n="64,128", model="euclidean2")
    cfg = cli.resolve_config("run-dstsp", args)
    assert cfg.n == (64, 128)            # flag wins
    assert cfg.seed == 1                 # config survives where no flag
    assert cfg.seeds == 9
    assert cfg.model["model"] == "euclidean2"   # flag renames the model
    assert cfg.model["sigma"] == 2.0            # config params kept


def test_config_rejects_unknown_field(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(ConfigError, match="bogus"):
        cli.resolve_config("run-dstsp", _args("run-dstsp", config=cfgfile))


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="'n'"):
        cli.resolve_config("run-dstsp", _args("run-dstsp", n="128,64"))
    with pytest.raises(ConfigError, match="'seed'"):
        cli.resolve_config("run-dstsp", _args("run-dstsp", seed=-1))
    with pytest.raises(ConfigError, match="'delta'"):
        cli.resolve_config("run-dstsp", _args("run-dstsp", delta=0))


def test_threads_env_fallback(monkeypatch):
    monkeypatch.setenv("DSTSP_LAB_THREADS", "2")
    cfg = cli.resolve_config("run-dstsp", _args("run-dstsp"))
    assert cfg.threads == 2
    monkeypatch.setenv("DSTSP_LAB_THREADS", "zebra")
    with pytest.raises(ConfigError, match="DSTSP_LAB_THREADS"):
        cli.resolve_config("run-dstsp", _args("run-dstsp"))


def test_default_threads_ignore_the_core_count(tmp_path, monkeypatch):
    monkeypatch.delenv("DSTSP_LAB_THREADS", raising=False)
    out = tmp_path / "r.csv"
    manifests = []
    for cores in (2, 64):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
        assert _main(["concentration", "--n", "1000", "--out", out]) == 0
        manifests.append((tmp_path / "r.manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    assert json.loads(manifests[0])["config"]["threads"] == 1


def test_main_reports_config_errors_as_exit_2(tmp_path, capsys):
    rc = _main(["run-dstsp", "--density", "nope",
                "--out", tmp_path / "x.csv"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


# ------------------------------------------------------------ subcommands


def test_run_dstsp_deterministic_and_thread_independent(tmp_path):
    base = ["run-dstsp", "--model", "euclidean2", "--density", "uniform",
            "--n", "64", "--seeds", "2", "--seed", "7"]
    outs = []
    for tag, threads in (("a", 1), ("b", 3), ("c", 1)):
        out = tmp_path / f"{tag}.csv"
        rc = _main(base + ["--threads", threads, "--out", out])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    header = outs[0].decode().splitlines()[0]
    assert header == "seed,model,density,n,tour_time,J,ratio,eps0,alpha_hat"


def test_run_dstsp_rows_and_sandwich(tmp_path):
    out = tmp_path / "d.csv"
    rc = _main(["run-dstsp", "--n", "64,128", "--seeds", "2", "--seed", "3",
                "--out", out, "--assert"])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 4
    # Uniform density against constant agility pi: J = pi^(-1/2).
    assert float(rows[0]["J"]) == pytest.approx(3.14159265 ** -0.5, rel=1e-6)
    assert float(rows[0]["alpha_hat"]) == pytest.approx(1 / 3.14159265, rel=1e-6)
    for row in rows:
        assert float(row["tour_time"]) > 0.0
        assert 0.1 < float(row["ratio"]) < 40.0


def test_check_bounds_matches_worked_arithmetic(tmp_path):
    cfgfile = tmp_path / "cb.json"
    cfgfile.write_text(json.dumps({"extras": {
        "b": 16, "gamma": 2, "s": 2, "alpha": 0.3183,
        "j": 1.0, "int_g_inv": 1.0}}))
    out = tmp_path / "b.json"
    rc = _main(["check-bounds", "--config", cfgfile, "--n", "10000",
                "--delta", "0.1", "--out", out, "--assert"])
    assert rc == 0
    rep = json.load(open(out))
    _, beta = bnd.beta_constant(16, 2, symmetric=True)
    assert rep["beta"] == pytest.approx(beta, rel=1e-12)
    assert rep["lower"] == pytest.approx(0.9 / beta * 100.0, rel=1e-12)
    assert rep["lower"] == pytest.approx(8.52, abs=0.01)
    assert rep["upper"] == pytest.approx(
        1.1 * 12 * 2 * 0.3183 ** -0.5 * 100.0, rel=1e-12)
    assert rep["upper"] == pytest.approx(4679.0, abs=1.0)
    assert rep["adversarial_upper"] == pytest.approx(rep["upper"] / 2, rel=1e-12)


def test_hcp_solve_single_target(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"b": 3, "s": 2, "targets": [[1]]}))
    out = tmp_path / "plan.json"
    rc = _main(["hcp-solve", "--instance", inst, "--out", out, "--assert"])
    assert rc == 0
    res = json.load(open(out))
    assert res["cost"] == 2.0
    plan = hcp.plan_from_json(res["plan"])
    parsed = hcp.instance_from_json(json.loads(inst.read_text()))
    assert hcp.plan_cost(plan, parsed) == 2.0


def test_hcp_solve_missing_instance_is_config_error(tmp_path, capsys):
    rc = _main(["hcp-solve", "--out", tmp_path / "x.json"])
    assert rc == 2
    assert "instance" in capsys.readouterr().err


@pytest.mark.parametrize("instance, field", [
    ({"b": 4, "s": 2, "targets": [[1.5], [2.9, 0.2]]}, "targets[0][0]"),
    ({"b": 4, "s": 2, "targets": [[1], [2, 0.2]]}, "targets[1][1]"),
    ({"b": 4, "s": 2, "targets": [[1], ["2"]]}, "targets[1][0]"),
    ({"b": 4.9, "s": 2, "targets": [[1]]}, "'b'"),
    ({"b": 4, "s": 2.5, "targets": [[1]]}, "'s'"),
])
def test_hcp_solve_non_integer_instance_is_config_error(tmp_path, capsys,
                                                        instance, field):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance))
    rc = _main(["hcp-solve", "--instance", inst, "--out", tmp_path / "x.json"])
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_hcp_solve_accepts_integral_floats(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"b": 4.0, "s": 2, "targets": [[1.0, 0]]}))
    out = tmp_path / "plan.json"
    assert _main(["hcp-solve", "--instance", inst, "--out", out]) == 0
    assert json.load(open(out))["cost"] == 2.0


def test_build_cover_round_trips(tmp_path):
    out = tmp_path / "cover.json"
    rc = _main(["build-cover", "--model", "euclidean2", "--eps0", "0.25",
                "--out", out, "--assert"])
    assert rc == 0
    obj = json.load(open(out))
    cover = hcs.cover_from_json(obj)
    assert cover.m == 16
    assert hcs.cover_to_json(cover) == obj


def test_estimate_agility_schema_and_values(tmp_path):
    out = tmp_path / "ag.csv"
    rc = _main(["estimate-agility", "--model", "euclidean2",
                "--eps0", "0.05", "--seed", "3", "--out", out, "--assert"])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    assert list(rows[0].keys()) == ["model", "x", "y", "eps", "volume",
                                    "gamma_hat", "g_hat", "r2"]
    # 2x2 cells, 5 ladder rungs each.
    assert len(rows) == 20
    for row in rows:
        assert row["model"] == "euclidean2"
        assert abs(float(row["gamma_hat"]) - 2.0) < 0.1
        assert abs(float(row["g_hat"]) - 3.14159265) < 0.32
        assert float(row["r2"]) > 0.99


def test_cbo_check_rows(tmp_path):
    out = tmp_path / "cbo.csv"
    rc = _main(["cbo-check", "--n", "6,64", "--seeds", "2", "--seed", "2",
                "--out", out, "--assert"])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    assert list(rows[0].keys()) == ["seed", "n", "lambda", "greedy",
                                    "brute", "bound"]
    for row in rows:
        greedy, brute = int(row["greedy"]), int(row["brute"])
        if int(row["n"]) <= 8:
            assert brute >= greedy
        else:
            assert brute == -1
        assert greedy <= float(row["bound"])


def test_concentration_rows(tmp_path):
    out = tmp_path / "conc.csv"
    rc = _main(["concentration", "--n", "10000", "--seed", "5",
                "--out", out, "--assert"])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    assert list(rows[0].keys()) == ["regime", "m", "n", "zeta", "trials",
                                    "empirical", "bound"]
    assert {r["m"] for r in rows} == {"4", "16"}
    for row in rows:
        assert row["regime"] in ("azuma_simple", "redux_half",
                                 "redux_gt_half", "redux_lt_half")
        assert float(row["empirical"]) <= float(row["bound"]) + 3.0 / 1000


def test_run_adversarial_covers_three_densities(tmp_path):
    out = tmp_path / "adv.csv"
    rc = _main(["run-adversarial", "--n", "64", "--seeds", "2",
                "--seed", "11", "--out", out])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    assert {r["density"] for r in rows} == {"worst_case", "uniform", "prop_g"}
    assert all(r["model"] == "scaled_euclidean2" for r in rows)
    assert len(rows) == 6


def test_run_adversarial_with_a_field_far_finer_than_the_square(tmp_path):
    # a 2 x 2 field of 1e-6 cells at the origin: the unit square lies in
    # its clamped outside, about 10^6 cells per unit, where the cell walk
    # used to give up; there sigma is values[1][1] = 1, so the tours are
    # those of a one-cell field of 1
    rows = {}
    for name, cell, values in [("fine", 1e-6, [[1.0, 2.0], [2.0, 1.0]]),
                               ("one", 1.0, [[1.0]])]:
        cfgfile = tmp_path / f"{name}.json"
        cfgfile.write_text(json.dumps({"extras": {"sigma_grid": {
            "origin": [0, 0], "cell_size": cell, "values": values}}}))
        out = tmp_path / f"{name}.csv"
        rc = _main(["run-adversarial", "--config", cfgfile, "--n", "64",
                    "--seeds", "1", "--out", out])
        assert rc == 0
        rows[name] = list(csv.DictReader(open(out)))
    assert len(rows["fine"]) == 3
    for fine, one in zip(rows["fine"], rows["one"]):
        assert fine["density"] == one["density"]
        assert float(fine["tour_time"]) == pytest.approx(
            float(one["tour_time"]), rel=1e-12)


def test_density_file_input(tmp_path):
    import numpy as np
    field = bnd.GridField((0.0, 0.0), 1.0 / 16,
                          np.full((16, 16), 1.0))
    fpath = tmp_path / "dens.txt"
    bnd.field_to_file(field, fpath)
    out = tmp_path / "d.csv"
    rc = _main(["run-dstsp", "--density", fpath, "--n", "32",
                "--seeds", "1", "--out", out])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    assert rows[0]["density"] == str(fpath)


@pytest.mark.parametrize("header", [
    '{"origin": [0.0, 0.0], "cell_size": 0.5}',               # no dims
    "origin 0 0, cell size 0.5",                             # not JSON
    '{"origin": [0.0, 0.0], "cell_size": 0.5, "dims": [3, 3]}',
], ids=["missing-dims", "non-json-header", "dims-mismatch"])
def test_bad_density_file_is_config_error(tmp_path, capsys, header):
    fpath = tmp_path / "dens.txt"
    fpath.write_text(header + "\n1.0 1.0\n1.0 1.0\n")
    rc = _main(["run-dstsp", "--density", fpath, "--n", "32", "--seeds",
                "1", "--out", tmp_path / "d.csv"])
    assert rc == 2
    assert "field 'density'" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, spec, field", [
    ("run-dstsp", {"model": "scaled_euclidean2", "sigma": [1, 2]}, "sigma"),
    ("run-dstsp", {"model": "scaled_euclidean2", "sigma": "fast"}, "sigma"),
    ("run-dstsp", {"model": "euclidean2", "c_pi": "fast"}, "c_pi"),
    ("build-cover", {"model": "reeds_shepp", "r_min": -1}, "r_min"),
], ids=["sigma-list", "sigma-string", "c_pi-string", "r_min-negative"])
def test_malformed_model_spec_is_config_error(tmp_path, capsys, subcommand,
                                              spec, field):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"model": spec}))
    rc = _main([subcommand, "--config", cfgfile, "--n", "32", "--seeds", "1",
                "--out", tmp_path / "x.csv"])
    assert rc == 2
    assert f"field 'model.{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, model, extras", [
    ("run-dstsp", "reeds_shepp", {"g_samples": "x"}),
    ("estimate-agility", "euclidean2", {"cells": "ab"}),
    ("estimate-agility", "reeds_shepp", {"headings": 0}),
    ("estimate-agility", "euclidean2", {"n_samples": 0}),
    ("concentration", "euclidean2", {"trials": 0}),
    ("concentration", "euclidean2", {"m": [4, 0]}),
    ("concentration", "euclidean2", {"zeta_exp": [5]}),
    ("check-bounds", "euclidean2", {"s": 1}),
    ("check-bounds", "euclidean2", {"b": 1}),
    ("check-bounds", "euclidean2", {"gamma": 1}),
    ("check-bounds", "euclidean2", {"alpha": 0}),
], ids=["g_samples", "cells", "headings", "n_samples", "trials", "m",
        "zeta_exp", "s", "b", "gamma", "alpha"])
def test_bad_extras_are_config_errors(tmp_path, capsys, subcommand, model,
                                      extras):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"extras": extras}))
    rc = _main([subcommand, "--config", cfgfile, "--model", model, "--n",
                "32", "--seeds", "1", "--out", tmp_path / "x.csv"])
    assert rc == 2
    key = next(iter(extras))
    assert f"field 'extras.{key}'" in capsys.readouterr().err


# --------------------------------------------------------------- manifests


def test_manifest_written_and_deterministic(tmp_path):
    out = tmp_path / "r.csv"
    argv = ["concentration", "--n", "1000", "--seed", "4", "--out", out]
    assert _main(argv) == 0
    man_path = tmp_path / "r.manifest.json"
    first = man_path.read_bytes()
    man = json.loads(first)
    assert man["subcommand"] == "concentration"
    assert man["config"]["seed"] == 4
    assert man["outputs"][str(out)].startswith("sha256:")
    assert man["inputs"]["resolved_config"].startswith("sha256:")
    assert _main(argv) == 0
    assert man_path.read_bytes() == first


def test_manifest_config_digest_ignores_execution_fields(tmp_path):
    digests = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}" / "r.csv"
        out.parent.mkdir()
        assert _main(["run-dstsp", "--n", "64", "--seeds", "1",
                      "--threads", threads, "--out", out]) == 0
        man = json.loads((out.parent / "r.manifest.json").read_text())
        assert man["config"]["threads"] == threads
        digests.append(man["inputs"]["resolved_config"])
    assert digests[0] == digests[1]


def test_manifest_hashes_instance_input(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"b": 2, "s": 2, "targets": [[0], [1]]}))
    out = tmp_path / "plan.json"
    assert _main(["hcp-solve", "--instance", inst, "--out", out]) == 0
    man = json.loads((tmp_path / "plan.manifest.json").read_text())
    assert "inst.json" in man["inputs"]


# ------------------------------------------------------------- exit codes


def test_assert_failures_exit_nonzero(tmp_path, monkeypatch, capsys):
    # The handler contract: any reported failure flips the exit code.
    def broken(cfg):
        return [], ["synthetic violation for the exit-code path"]

    monkeypatch.setitem(cli._HANDLERS, "concentration", broken)
    cfg = cli.resolve_config(
        "concentration",
        _args("concentration", out=tmp_path / "x.csv"))
    (tmp_path / "x.csv").write_text("stub\n")
    assert cli.run(cfg) == 1
    assert "synthetic violation" in capsys.readouterr().err


def test_console_entry_point_runs():
    r = subprocess.run([sys.executable, "-m", "dstsp_lab.cli", "--help"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    for name in cli.SUBCOMMANDS:
        assert name in r.stdout
