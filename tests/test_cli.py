from collections import Counter
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from sandpiles import AdditionParams, btw, build_lattice, enumerate_recurrent
from sandpiles import cli
from sandpiles.cli import (main, build_initial, parse_dims, parse_real, spawn_rngs,
                           ConfigError)

import oracles
from oracles import csv_row, json_row, occupancy_average, stepwise_chain


def run_cli(args):
    return main(list(args))


def test_parse_real_tokens():
    assert parse_real("0.25") == 0.25
    assert parse_real("sqrt2-1") == np.sqrt(2.0) - 1.0
    assert parse_real(0.5) == 0.5
    with pytest.raises(ConfigError):
        parse_real("half")
    with pytest.raises(ConfigError):
        parse_real(True)
    for bad in ("nan", " inf", "-Infinity", float("nan"), float("inf"), 10**400):
        with pytest.raises(ConfigError):
            parse_real(bad)


def test_parse_dims_forms():
    assert parse_dims("2,3") == [2, 3]
    assert parse_dims("2x3") == [2, 3]
    assert parse_dims([2, 3]) == [2, 3]
    with pytest.raises(ConfigError):
        parse_dims("two")
    with pytest.raises(ConfigError):
        parse_dims("")


def test_enumerate_json_frozen(tmp_path):
    out = tmp_path / "enum.json"
    rc = run_cli(["enumerate", "--dims", "2", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["n_sites"] == 2
    assert data["n_recurrent"] == 3
    assert data["det_integer"] == 3
    assert data["det_continuous"] == "3/4"
    assert data["addition_orders"] == [3, 3]
    assert data["identity_match"] is True


def test_enumerate_csv_rows(tmp_path):
    out = tmp_path / "enum.csv"
    rc = run_cli(["enumerate", "--dims", "2", "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    rows = [l for l in lines if not l.startswith("#")]
    assert "# det_integer=3" in meta
    assert "# identity_match=True" in meta
    assert rows[0] == "q0,q1"
    assert rows[1:] == ["0,1", "1,0", "1,1"]


def test_enumerate_csv_2x3_matches_oracle(tmp_path):
    out = tmp_path / "enum.csv"
    assert run_cli(["enumerate", "--dims", "2,3", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[:8] == [
        "# command=enumerate", "# dims=2,3", "# n_recurrent=2415", "# det_integer=2415",
        "# det_continuous=2415/4096", "# addition_orders=2415,161,2415,2415,161,2415",
        "# identity_match=True", "q0,q1,q2,q3,q4,q5"]
    rows = oracles.enumerate_recurrent(build_lattice([2, 3]))
    assert lines[8:] == [",".join(str(int(v)) for v in row) for row in rows]


def test_enumerate_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["enumerate", "--dims", "2,2", "--out", str(a)])
    run_cli(["enumerate", "--dims", "2,2", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_enumerate_count_mismatch_exits_1(monkeypatch, capsys):
    full = cli.btw.enumerate_recurrent
    monkeypatch.setattr(cli.btw, "enumerate_recurrent", lambda lat: full(lat)[1:])
    assert run_cli(["enumerate", "--dims", "2"]) == 1
    assert "recurrent count does not equal the exact determinant" in capsys.readouterr().err


# Small settings for each subcommand that takes --dims.
SMALL_RUNS = {
    "enumerate": ["--dims", "2"],
    "simulate": ["--dims", "2,2", "--a", "0.2", "--b", "0.8", "--steps", "5",
                 "--init", "mu"],
    "invariance": ["--dims", "2", "--samples", "200", "--tolerance", "1"],
    "couple": ["--dims", "2", "--a", "0.2", "--b", "0.8", "--init", "mu",
               "--max-epochs", "2"],
    "limit-rational": ["--dims", "2", "--a", "0.5", "--steps", "10", "--samples", "200",
                       "--init", "mu", "--tolerance", "1"],
    "ergodic": ["--dims", "2,2", "--a", "0.25", "--steps", "50", "--init", "mu",
                "--tolerance", "1"],
}


def test_each_subcommand_scans_the_recurrent_set_at_most_once(monkeypatch, tmp_path):
    scans, scan = Counter(), btw.enumerate_recurrent
    for command, args in SMALL_RUNS.items():
        monkeypatch.setattr(btw, "enumerate_recurrent",
                            lambda lat, command=command: scans.update([command]) or scan(lat))
        assert run_cli([command, *args, "--out", str(tmp_path / command)]) in (0, 1)
    assert all(count <= 1 for count in scans.values()), scans


@pytest.mark.parametrize("argv", [
    *([command, *args] for command, args in SMALL_RUNS.items()),
    ["enumerate", "--dims", "2", "--format", "csv"],
    ["simulate", "--dims", "2", "--a", "0.25", "--steps", "5", "--format", "json"],
    ["couple", "--dims", "2", "--a", "0.2", "--b", "0.8", "--format", "json"],
    ["fourier", "--a", "0.3", "--k", "1,2", "--N", "10", "--samples", "200"],
    ["ergodic", "--dims", "2,2", "--a", "0.25", "--steps", "50", "--tolerance", "0"],
])
def test_stdout_and_out_get_the_same_bytes(argv, tmp_path, capsys):
    # One writer: a report goes to --out or to stdout, byte for byte the
    # same, and in full when its check fails.
    code = run_cli(argv)
    printed = capsys.readouterr().out
    out = tmp_path / "report"
    assert run_cli(argv + ["--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert printed.endswith("\n") and out.read_bytes() == printed.encode()
    if "--tolerance" in argv and argv[argv.index("--tolerance") + 1] == "0":
        report = json.loads(printed)
        assert code == 1 and report["pass"] is False and len(report["cells"]) == 192


def test_enumerate_capacity_exit_code(tmp_path, capsys):
    rc = run_cli(["enumerate", "--dims", "4,4"])
    assert rc == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["enumerate", "invariance", "couple", "limit-rational",
                                     "ergodic"])
def test_capacity_message_on_huge_box_exits_3(command, capsys):
    # (2d)^n for 128x128 has 9865 digits, past Python's int-to-str limit.
    extra = {"couple": ["--a", "0.2", "--b", "0.8"], "limit-rational": ["--a", "0.5"],
             "ergodic": ["--a", "0.25"]}
    rc = run_cli([command, "--dims", "128,128", *extra.get(command, [])])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: 4^16384 (about 10^9864) stable configurations")
    assert len(err) < 200


def test_simulate_trajectory_and_determinism(tmp_path):
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    args = ["simulate", "--dims", "2", "--a", "0.2", "--b", "0.8",
            "--steps", "25", "--seed", "9"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    rows = [l for l in lines if not l.startswith("#")]
    assert rows[0] == "t,site_added,u,quanta_0,quanta_1,frac_0,frac_1"
    assert len(rows) == 26
    first = rows[1].split(",")
    assert first[0] == "1"
    assert int(first[1]) in (0, 1)
    assert 0.2 <= float(first[2]) <= 0.8
    for row in rows[1:]:
        parts = row.split(",")
        assert 0 <= int(parts[3]) < 2 and 0 <= int(parts[4]) < 2
        assert 0.0 <= float(parts[5]) < 0.5 and 0.0 <= float(parts[6]) < 0.5


def test_simulate_fixed_amount_token(tmp_path):
    out = tmp_path / "t.csv"
    rc = run_cli(["simulate", "--dims", "2", "--a", "sqrt2-1", "--steps", "5",
                  "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "# mode=fixed" in text
    rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
    for row in rows:
        assert float(row.split(",")[2]) == np.sqrt(2.0) - 1.0


def test_simulate_json_format(tmp_path):
    out = tmp_path / "t.json"
    rc = run_cli(["simulate", "--dims", "2", "--a", "0.3", "--steps", "4",
                  "--format", "json", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["metadata"]["mode"] == "fixed"
    assert len(data["trajectory"]) == 4
    assert data["trajectory"][0]["t"] == 1


def test_simulate_missing_amount_is_config_error(capsys):
    rc = run_cli(["simulate", "--dims", "2", "--steps", "5"])
    assert rc == 2
    assert "missing --a" in capsys.readouterr().err


def test_simulate_bad_interval_is_config_error(capsys):
    rc = run_cli(["simulate", "--dims", "2", "--a", "0.8", "--b", "0.2",
                  "--steps", "5"])
    assert rc == 2
    assert (capsys.readouterr().err
            == "error: addition amounts need 0 <= a <= b < 1, got a=0.8, b=0.2\n")


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "lattice": {"dims": [2]},
        "a": 0.3, "steps": 5, "seed": 4,
    }))
    out = tmp_path / "t.csv"
    rc = run_cli(["simulate", "--config", str(cfg), "--a", "0.4",
                  "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "# a=0.4" in text
    assert "# steps=5" in text


def test_config_file_bad_json_reports_position(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{\n  "lattice": {"dims": [2]},\n  oops\n}\n')
    rc = run_cli(["simulate", "--config", str(cfg), "--steps", "5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.json:3" in err


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"lattice": {"dims": [2]}, "stepz": 5}')
    rc = run_cli(["simulate", "--config", str(cfg), "--a", "0.5", "--steps", "5"])
    assert rc == 2
    assert "stepz" in capsys.readouterr().err


@pytest.mark.parametrize("args, key, value", [
    (["invariance", "--dims", "2", "--samples", "100"], "format", "csv"),
    (["limit-rational", "--dims", "2", "--a", "0.5"], "format", "csv"),
    (["fourier", "--a", "0.3", "--samples", "10"], "format", "csv"),
    (["ergodic", "--dims", "2", "--a", "0.3"], "format", "csv"),
    (["invariance", "--dims", "2", "--samples", "100"], "steps", 5),
], ids=lambda v: v[0] if isinstance(v, list) else str(v))
def test_setting_of_another_command_is_rejected(tmp_path, capsys, args, key, value):
    # Neither as a flag nor in a config file is it silently ignored.
    with pytest.raises(SystemExit) as stop:
        run_cli(args + [flag(key), str(value)])
    assert stop.value.code == 2
    assert f"unrecognized arguments: {flag(key)}" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert run_cli(args + ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg}: unknown config keys: {key}\n"
    assert captured.out == ""


def test_init_variants(tmp_path):
    inline = json.dumps({"quanta": [1, 0], "frac": [0.1, 0.2]})
    for spec in ("zero", "max", "mu", inline):
        rc = run_cli(["simulate", "--dims", "2", "--a", "0.5", "--steps", "3",
                      "--init", spec, "--out", str(tmp_path / "t.csv")])
        assert rc == 0
    init_file = tmp_path / "init.json"
    init_file.write_text(inline)
    rc = run_cli(["simulate", "--dims", "2", "--a", "0.5", "--steps", "3",
                  "--init", f"@{init_file}", "--out", str(tmp_path / "t.csv")])
    assert rc == 0


def test_init_rejected(tmp_path, capsys):
    unstable = json.dumps({"quanta": [2, 0], "frac": [0.0, 0.0]})
    rc = run_cli(["simulate", "--dims", "2", "--a", "0.5", "--steps", "3",
                  "--init", unstable])
    assert rc == 2
    wrong_len = json.dumps({"quanta": [1], "frac": [0.0]})
    rc = run_cli(["simulate", "--dims", "2", "--a", "0.5", "--steps", "3",
                  "--init", wrong_len])
    assert rc == 2
    rc = run_cli(["simulate", "--dims", "2", "--a", "0.5", "--steps", "3",
                  "--init", "garbage"])
    assert rc == 2


def test_couple_single_site(tmp_path):
    out = tmp_path / "log.csv"
    rc = run_cli(["couple", "--dims", "1", "--a", "0.0", "--b", "0.96",
                  "--seed", "5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    meta = {l.split("=")[0][2:]: l.split("=", 1)[1] for l in lines if l.startswith("#")}
    assert meta["M"] == "5" and meta["L"] == "5"
    assert meta["p_success"] == "1/32"
    assert meta["coalesced"] == "True"
    rows = [l for l in lines if not l.startswith("#")]
    assert rows[0] == "epoch,O_occurred,coalesced"
    last = rows[-1].split(",")
    assert last[2] == "1"
    for row in rows[1:]:
        epoch, o, c = row.split(",")
        if o == "1":
            assert c == "1"


def test_couple_requires_interval(capsys):
    rc = run_cli(["couple", "--dims", "2", "--a", "0.5", "--b", "0.5"])
    assert rc == 2
    rc = run_cli(["couple", "--dims", "2", "--a", "0.8", "--b", "0.2"])
    assert rc == 2


def test_invariance_passes(tmp_path):
    out = tmp_path / "inv.json"
    rc = run_cli(["invariance", "--dims", "2", "--samples", "20000",
                  "--bins", "8", "--seed", "3", "--out", str(out)])
    data = json.loads(out.read_text())
    assert data["pass"] is (rc == 0)
    assert rc == 0
    assert data["tv"] <= data["noise_floor"] + data["tolerance"]


def test_limit_rational_passes(tmp_path):
    out = tmp_path / "lim.json"
    rc = run_cli(["limit-rational", "--dims", "2", "--a", "0.5",
                  "--steps", "400", "--samples", "4000", "--bins", "4",
                  "--seed", "2", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["quantum_multiple"] == 1
    assert data["pass"] is True


@pytest.mark.parametrize("dims", ["2,2", "1"])
def test_limit_rational_passes_on_periodic_lattices(tmp_path, dims):
    # the boundary degrees share the factor 2 here, so the chain's law
    # alternates between two cosets of the sandpile group
    out = tmp_path / "lim.json"
    assert run_cli(["limit-rational", "--dims", dims, "--a", "0.5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["pass"] is True


def test_limit_rational_rejects_non_multiple(capsys):
    rc = run_cli(["limit-rational", "--dims", "2", "--a", "0.3"])
    assert rc == 2
    assert "quantum multiple" in capsys.readouterr().err


def test_limit_rational_rejects_amount_off_the_grid(capsys):
    # 5e-14 of mass off 1/2 is 112 grid units: every step would move frac.
    rc = run_cli(["limit-rational", "--dims", "2", "--a", "0.50000000000005"])
    assert rc == 2
    assert "quantum multiple" in capsys.readouterr().err


def test_fourier_report(tmp_path):
    out = tmp_path / "f.json"
    rc = run_cli(["fourier", "--a", "0.3", "--k", "1,-2", "--x", "0.2,0.7",
                  "--N", "25", "--samples", "40000", "--seed", "1",
                  "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["pass"] is True
    assert data["abs_difference"] <= 4.0 * data["stderr"]
    assert data["modulus_bound"] > 0.0


def test_fourier_dimension_mismatch(capsys):
    rc = run_cli(["fourier", "--a", "0.3", "--k", "1,2", "--x", "0.1"])
    assert rc == 2


def test_ergodic_report(tmp_path):
    out = tmp_path / "erg.json"
    rc = run_cli(["ergodic", "--dims", "2", "--a", "sqrt2-1",
                  "--steps", "60000", "--seed", "8", "--init", "mu",
                  "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert len(data["cells"]) == 3
    assert data["expected_frequency"] == pytest.approx(1 / 3)
    assert data["max_abs_deviation"] <= data["tolerance"]


def test_module_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "sandpiles", "enumerate",
                           "--dims", "2"], capture_output=True, text=True)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["n_recurrent"] == 3


def test_runs_without_scipy():
    # scipy is a test dependency: no module of the package may import it.
    code = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None
import sandpiles
for module in pkgutil.iter_modules(sandpiles.__path__):
    if module.name != "__main__":
        importlib.import_module("sandpiles." + module.name)
from sandpiles import cli
sys.exit(cli.main(["enumerate", "--dims", "2"]))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n_recurrent"] == 3


def test_missing_dims_is_config_error(capsys):
    rc = run_cli(["invariance"])
    assert rc == 2
    assert "dims" in capsys.readouterr().err


def test_init_with_nan_frac_is_config_error(capsys):
    rc = run_cli(["simulate", "--dims", "2", "--a", "0.3", "--steps", "2",
                  "--init", '{"quanta":[0,0],"frac":[NaN,0]}'])
    assert rc == 2
    assert "frac" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["simulate", "--dims", "2", "--a", "0.3", "--steps", "-5"],
    ["ergodic", "--dims", "2", "--a", "0.3", "--steps", "-1"],
    ["limit-rational", "--dims", "2", "--a", "0.5", "--steps", "-1"],
    ["limit-rational", "--dims", "2", "--a", "0.5", "--samples", "-1"],
    ["invariance", "--dims", "2", "--samples", "-1"],
    ["fourier", "--a", "0.3", "--samples", "-1"],
], ids=lambda args: f"{args[0]}{args[-2]}")
def test_negative_count_flag_is_config_error(args, capsys):
    assert run_cli(args) == 2
    assert "must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("args, least", [
    (["fourier", "--a", "0.3", "--samples", "0"], 2),
    (["fourier", "--a", "0.3", "--samples", "1"], 2),
    (["invariance", "--dims", "2", "--samples", "0"], 1),
    (["limit-rational", "--dims", "2", "--a", "0.5", "--samples", "0"], 1),
], ids=["fourier0", "fourier1", "invariance0", "limit-rational0"])
def test_too_few_samples_is_config_error(args, least, capsys):
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert f"--samples must be at least {least}, got {args[-1]}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("args", [
    ["limit-rational", "--dims", "2", "--a", "nan"],
    ["limit-rational", "--dims", "2", "--a", "inf"],
    ["fourier", "--a", "nan"],
    ["fourier", "--a", "0.5", "--x", "inf"],
    ["invariance", "--dims", "2", "--tolerance", "inf"],
], ids=["limit-rational-nan", "limit-rational-inf", "fourier-a-nan", "fourier-x-inf",
        "invariance-tolerance-inf"])
def test_non_finite_real_flag_is_config_error(args, capsys):
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert "expected a finite decimal" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, text, key", [
    ("limit-rational", '{"lattice": {"dims": [2]}, "a": Infinity}', "a"),
    ("fourier", '{"a": NaN}', "a"),
    ("fourier", '{"a": 0.5, "k": [1], "x": [-Infinity]}', "x"),
], ids=["limit-rational-a", "fourier-a", "fourier-x"])
def test_non_finite_real_in_config_is_config_error(tmp_path, capsys, command, text, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run_cli([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert f"--{key}: expected a finite decimal" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value, message", [(-3, "must be >= 0"), ("abc", "expected an integer")])
def test_bad_count_in_config_is_config_error(tmp_path, capsys, value, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"dims": [2]}, "steps": value}))
    rc = run_cli(["simulate", "--config", str(cfg), "--a", "0.3"])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [
    (["invariance", "--samples", "10"], "bins"),
    (["invariance", "--samples", "10"], "tolerance"),
    (["couple", "--a", "0.2", "--b", "0.8"], "max_epochs"),
    (["fourier", "--a", "0.3", "--samples", "10"], "N"),
    (["simulate", "--a", "0.3", "--steps", "2"], "seed"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_non_numeric_setting_in_config_is_config_error(tmp_path, capsys, command, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"dims": [2]}, key: "abc"}))
    rc = run_cli(command + ["--config", str(cfg)])
    assert rc == 2
    assert f"{flag(key)}: expected" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "5",
    "null",
    '{"quanta": ["x", 0], "frac": [0.0, 0.0]}',
    '{"quanta": [0.5, 0], "frac": [0.0, 0.0]}',
    '{"quanta": [true, 0], "frac": [0.0, 0.0]}',
    '{"quanta": [1e30, 0], "frac": [0.0, 0.0]}',
    '{"quanta": [99999999999999999999, 0], "frac": [0.0, 0.0]}',
    '{"quanta": [0, 0], "frac": ["0.1", 0.0]}',
    '{"quanta": [0, 0], "frac": [false, 0.0]}',
], ids=["number-root", "null-root", "string-quanta", "fractional-quanta", "bool-quanta",
        "float-overflow-quanta", "int64-overflow-quanta", "string-frac", "bool-frac"])
def test_bad_init_file_is_config_error(tmp_path, capsys, text):
    init = tmp_path / "init.json"
    init.write_text(text)
    rc = run_cli(["simulate", "--dims", "2", "--a", "0.3", "--steps", "2",
                  "--init", f"@{init}"])
    assert rc == 2
    assert "bad init configuration" in capsys.readouterr().err


@pytest.mark.parametrize("k", [["x"], [1.5], [True], []],
                         ids=["string", "fraction", "bool", "empty"])
def test_bad_k_in_config_is_config_error(tmp_path, capsys, k):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": k}))
    rc = run_cli(["fourier", "--a", "0.3", "--samples", "10", "--config", str(cfg)])
    assert rc == 2
    assert "--k:" in capsys.readouterr().err


def test_empty_k_flag_is_config_error(capsys):
    assert run_cli(["fourier", "--a", "0.3", "--samples", "10", "--k", ",,"]) == 2
    assert "--k: expected at least one integer" in capsys.readouterr().err


@pytest.mark.parametrize("args, config, message", [
    (["invariance", "--dims", "2", "--bins", "0"], None, "--bins must be at least 1, got 0"),
    (["limit-rational", "--dims", "2", "--a", "0.5", "--bins", "0"], None,
     "--bins must be at least 1, got 0"),
    (["invariance", "--dims", "2", "--tolerance", "-1"], None,
     "--tolerance must be at least 0, got -1.0"),
    (["ergodic", "--dims", "2", "--a", "0.3"], {"tolerance": -0.5},
     "--tolerance must be at least 0, got -0.5"),
    (["couple", "--dims", "2", "--a", "0.2", "--b", "0.8", "--max-epochs", "0"], None,
     "--max-epochs must be at least 1, got 0"),
    (["fourier", "--a", "0.3", "--N", "0"], None, "--N must be at least 1, got 0"),
    (["simulate", "--dims", "2", "--a", "0.3", "--steps", "1.5"], None,
     "--steps: expected an integer, got '1.5'"),
    (["enumerate", "--dims", "2"], {"out": 5}, "--out: expected a string, got 5"),
    (["enumerate", "--dims", "2"], {"out": ["x"]}, "--out: expected a string, got ['x']"),
    (["enumerate", "--dims", "2"], {"out": True}, "--out: expected a string, got True"),
    (["enumerate", "--dims", "2", "--format", "xml"], None,
     "--format: expected json or csv, got 'xml'"),
], ids=["invariance-bins0", "limit-rational-bins0", "tolerance-1", "config-tolerance",
        "max-epochs0", "N0", "steps-fraction", "config-out-5", "config-out-list",
        "config-out-true", "format-xml"])
def test_setting_outside_its_range_is_config_error(tmp_path, capsys, args, config, message):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = args + ["--config", str(cfg)]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def flag(key):
    return "--" + key.replace("_", "-")


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_flag_and_config_value_share_one_reader(tmp_path, capsys, command):
    # The same bad value, once as a flag and once in a config file, gives
    # the same message; valid required settings come as flags.
    spec = cli.COMMANDS[command][2]
    valid = {"dims": "2", "a": "0.5", "b": "0.8", "steps": "5"}
    checked = [key for key, (reader, _) in spec.items()
               if reader is not None and key != "out"]  # every string names a file
    assert checked
    for key in checked:
        base = [arg for k, v in valid.items() if k in spec and k != key for arg in (flag(k), v)]
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({"lattice": {"dims": "abc"}} if key == "dims" else {key: "abc"}))
        errors = []
        for extra in ([flag(key), "abc"], ["--config", str(cfg)]):
            assert run_cli([command, *base, *extra]) == 2, (key, extra)
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"error: {flag(key)}: expected ")


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_help_lists_exactly_the_commands_settings(capsys, command):
    with pytest.raises(SystemExit) as stop:
        run_cli([command, "--help"])
    assert stop.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", capsys.readouterr().out))
    assert listed == {"--help", "--config", *map(flag, cli.COMMANDS[command][2])}


def test_ergodic_zero_steps_is_config_error(capsys):
    rc = run_cli(["ergodic", "--dims", "2", "--a", "0.3", "--steps", "0"])
    assert rc == 2
    assert "--steps" in capsys.readouterr().err


# Off the fixed-point grid at site 0, so its first repr is not a grid value.
OFFGRID_INIT = {"quanta": [3, 0, 1, 2, 3, 0, 1, 1, 2], "frac": [0.1] + [0.0] * 8}


@pytest.mark.parametrize("a, b", [("0.2", "0.8"), ("sqrt2-1", None)], ids=["interval", "fixed"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_bytes_match_reference_rows(tmp_path, fmt, a, b):
    out = tmp_path / f"sim.{fmt}"
    args = ["simulate", "--dims", "3,3", "--a", a, "--steps", "300", "--seed", "5",
            "--init", json.dumps(OFFGRID_INIT), "--format", fmt, "--out", str(out)]
    assert run_cli(args + (["--b", b] if b else [])) == 0
    text = out.read_text()
    lat = build_lattice([3, 3])
    amount = parse_real(a)
    params = AdditionParams(amount, amount if b is None else parse_real(b))
    rows = []
    stepwise_chain(lat, build_initial(lat, json.dumps(OFFGRID_INIT), None), params, 300,
                   spawn_rngs(5, 2)[1],
                   lambda *step: rows.append((csv_row if fmt == "csv" else json_row)(*step)))
    if fmt == "csv":
        lines = text.splitlines()
        assert lines[-301].startswith("t,site_added,u,")
        assert lines[-300:] == rows
    else:
        meta = json.loads(text)["metadata"]
        assert text == json.dumps({"metadata": meta, "trajectory": rows}, indent=2) + "\n"


@pytest.mark.parametrize("dims, steps, seed, init", [
    ("2", 3000, 8, "mu"), ("2,2", 3000, 3, "zero"), ("3,3", 60, 1, "max"),
], ids=["path2", "grid22", "grid33"])
def test_ergodic_bytes_match_reference_occupancy(tmp_path, dims, steps, seed, init):
    out = tmp_path / "erg.json"
    rc = run_cli(["ergodic", "--dims", dims, "--a", "sqrt2-1", "--steps", str(steps),
                  "--seed", str(seed), "--init", init, "--out", str(out)])
    lat = build_lattice(parse_dims(dims))
    recurrent = enumerate_recurrent(lat)
    rng_init, rng_run = spawn_rngs(seed, 2)
    initial = build_initial(lat, init, rng_init)
    a = parse_real("sqrt2-1")
    freqs = occupancy_average(lat, initial, a, steps, rng_run, recurrent)
    expected = 1.0 / len(recurrent)
    max_dev = float(np.max(np.abs(freqs - expected)))
    assert rc == (0 if max_dev <= 0.02 else 1)
    assert out.read_text() == json.dumps({
        "command": "ergodic",
        "dims": parse_dims(dims), "a": a, "steps": steps, "seed": seed,
        "cells": [{"quanta": [int(v) for v in row], "frequency": float(f)}
                  for row, f in zip(recurrent, freqs)],
        "expected_frequency": expected,
        "max_abs_deviation": max_dev,
        "tolerance": 0.02, "pass": max_dev <= 0.02,
    }, indent=2) + "\n"
