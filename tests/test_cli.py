import json
import os
import subprocess
import sys

import pytest

from omtube import cli, coupling, mc, om


def run_cli(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# configuration resolution
# ---------------------------------------------------------------------------

def test_resolve_defaults():
    cfg = cli.resolve_config({"delta": "0.2"})
    assert cfg["delta"] == [0.2]
    assert cfg["dt"] is not None and cfg["dt"] <= 0.2 ** 2 / 50 + 1e-15
    # an integral float is an integer
    cfg = cli.resolve_config({"paths": 2.0, "delta": "0.2"})
    assert cfg["paths"] == 2 and type(cfg["paths"]) is int


def test_resolve_round_trips():
    raw = {"model": "sphere", "dim": 2, "delta": "0.3,0.2", "T": 0.5,
           "paths": 5000, "seed": 9, "dt": 1e-3}
    cfg = cli.resolve_config(raw)
    again = cli.resolve_config({k: cfg[k] for k in cfg})
    assert again == cfg


@pytest.mark.parametrize("bad,field", [
    ({"T": -1.0}, "T"),
    ({"delta": "-0.2"}, "delta"),
    ({"model": "torus"}, "model"),
    ({"delta": "0.5", "tube_radius": 0.4}, "delta"),
    ({"detla": "0.5"}, "detla: unknown option"),
    ({"paths": 2.7, "delta": "0.2"}, "paths: expected an integer, got 2.7"),
    ({"dim": True, "delta": "0.2"}, "dim: expected an integer, got True"),
    ({"T": True, "delta": "0.2"}, "T: expected a number, got True"),
    ({"delta": [True], "tube_radius": 2.0}, "delta: expected a number, got True"),
])
def test_resolve_rejects_bad_values(bad, field):
    with pytest.raises(ValueError, match=field):
        cli.resolve_config(bad)


def test_malformed_number_names_its_field(capsys, tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\npaths = 1e4\n")
    for argv, msg in [(["--paths", "1e4"], "paths: expected a number, got '1e4'"),
                      (["--T", "one"], "T: expected a number, got 'one'"),
                      (["--delta", "0.2,x"], "delta: expected a number, got 'x'"),
                      (["--config", str(ini)], "paths: expected a number, got '1e4'")]:
        assert run_cli(["smallball", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {msg}"), err


def test_parser_leaves_values_as_text(capsys):
    args = cli.build_parser().parse_args(["ratio", "--paths", "5000", "--T", "0.5",
                                          "--tube-radius", "0.7", "--no-bridge"])
    assert (args.paths, args.T, args.tube_radius, args.bridge) == ("5000", "0.5",
                                                                   "0.7", False)
    # choices are checked by resolve_config, not by argparse
    for flag, msg in [("--model", "model: unknown kind"), ("--scheme", "scheme: unknown")]:
        assert run_cli(["ratio", flag, "torus"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {msg}")


def test_horizon_not_whole_steps_exits_2(capsys):
    code = run_cli(["smallball", "--T", "0.02", "--dt", "4.5e-4", "--delta", "0.3",
                    "--paths", "1000"])
    assert code == 2
    assert "whole number of steps" in capsys.readouterr().err


def test_invalid_config_exit_code(capsys, tmp_path):
    code = run_cli(["smallball", "--dim", "1", "--T", "-3", "--delta", "1"])
    assert code == 2
    assert "T" in capsys.readouterr().err
    # specifications that fail only when the curve or field is built
    for argv, name in [(["--curve", "line:1"], "line velocity"),
                       (["--model", "sphere", "--dim", "3", "--field", "rotational"],
                        "rotational"),
                       (["--curve", f"table:{tmp_path / 'missing.csv'}"], "missing.csv")]:
        assert run_cli(["ratio", "--paths", "1000", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
    # non-finite values, which pass the positivity checks
    for argv, name in [(["moment", "--c", "nan"], "c"), (["moment", "--c", "inf"], "c"),
                       (["ratio", "--tube-radius", "nan"], "tube_radius"),
                       (["ratio", "--T", "inf"], "T"), (["ratio", "--dt", "nan"], "dt"),
                       (["ratio", "--delta", "0.2,nan"], "delta")]:
        assert run_cli([*argv, "--paths", "1000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name}: must be finite"), err
    # seeds outside the stream key range [0, 2**64), and an empty delta list
    for argv, msg in [(["smallball", "--seed=-1"], "seed: must lie in"),
                      (["smallball", "--seed", str(2 ** 64)], "seed: must lie in"),
                      (["ratio", "--delta", ","], "delta: needs at least one value")]:
        assert run_cli([*argv, "--paths", "1000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {msg}"), err


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_jmap_check_artifact(tmp_path, capsys):
    out = tmp_path / "jmap.json"
    code = run_cli(["jmap-check", "--dim", "4", "--trials", "500",
                    "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == cli.SCHEMA
    assert doc["results"]["passed"] is True
    assert doc["results"]["n"] == 7
    assert "max deviation" in capsys.readouterr().out


def test_expansions_smoke(tmp_path):
    out = tmp_path / "exp.json"
    code = run_cli(["expansions", "--model", "sphere", "--dim", "2",
                    "--delta", "0.4", "--tube-radius", "0.6",
                    "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["div_a_minus_limit"] > 1.5


def test_smallball_artifact(tmp_path, capsys):
    out = tmp_path / "sb.json"
    code = run_cli(["smallball", "--dim", "1", "--delta", "1", "--T", "1",
                    "--dt", "1e-3", "--paths", "20000", "--seed", "3",
                    "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    p = doc["results"]["estimate"]["p_hat"]
    ref = doc["results"]["theta_reference"]
    assert abs(p - ref) < 0.02
    assert "theta-series" in capsys.readouterr().out


@pytest.mark.parametrize("argv,p_hat", [
    (["--delta", "0.2", "--T", "1"], 0.0),
    (["--delta", "25", "--T", "0.01", "--dt", "0.001"], 1.0),
])
def test_smallball_zero_se_prints_no_z(tmp_path, capsys, argv, p_hat):
    out = tmp_path / "sb.json"
    assert run_cli(["smallball", "--dim", "1", *argv, "--paths", "1000",
                    "--out", str(out)]) == 0
    line = capsys.readouterr().out
    assert "theta-series" in line and " z " not in line
    est = json.loads(out.read_text())["results"]["estimate"]
    assert (est["p_hat"], est["se"]) == (p_hat, 0.0)


def test_ratio_with_csv_and_extrapolation(tmp_path):
    out = tmp_path / "ratio.json"
    csvp = tmp_path / "ratio.csv"
    code = run_cli(["ratio", "--model", "euclidean", "--dim", "2",
                    "--curve", "line:1,0", "--T", "0.3", "--delta",
                    "0.7,0.55,0.45", "--dt", "3e-3", "--paths", "20000",
                    "--seed", "7", "--out", str(out), "--csv", str(csvp)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["results"]["cells"]) == 3
    assert "extrapolation" in doc["results"]
    rows = csvp.read_text().strip().splitlines()
    assert rows[0].startswith("delta,dt,paths")
    assert len(rows) == 4


def test_ratio_estimation_error_exit_3(tmp_path, capsys):
    out = tmp_path / "fail.json"
    code = run_cli(["ratio", "--model", "euclidean", "--dim", "2",
                    "--curve", "constant", "--T", "1.0", "--delta", "0.05",
                    "--paths", "1000", "--seed", "1", "--out", str(out)])
    assert code == 3
    doc = json.loads(out.read_text())
    assert doc["status"] == "estimation_error"
    assert "error" in doc["results"]
    assert "estimation error" in capsys.readouterr().err


def test_ratio_zero_se_extrapolation_exit_3(tmp_path):
    # every path survives these wide tubes, so each cell's binomial SE is 0
    # and the extrapolation has no honest weights
    out = tmp_path / "zero_se.json"
    code = run_cli(["ratio", "--model", "euclidean", "--dim", "2",
                    "--curve", "constant", "--T", "1e-3", "--delta", "3,2.5,2",
                    "--dt", "5e-4", "--paths", "1000", "--seed", "1",
                    "--out", str(out)])
    assert code == 3
    doc = json.loads(out.read_text())
    assert doc["status"] == "estimation_error"
    assert "standard errors" in doc["results"]["error"]


def test_couple_csv(tmp_path):
    csvp = tmp_path / "couple.csv"
    code = run_cli(["couple", "--model", "sphere", "--dim", "2", "--T", "0.1",
                    "--delta", "0.35", "--dt", "1e-3", "--paths", "2000",
                    "--seed", "2", "--csv", str(csvp), "--tube-radius", "0.6"])
    assert code == 0
    rows = csvp.read_text().strip().splitlines()
    assert rows[0] == ",".join(coupling.DIAGNOSTICS_HEADER)
    assert len(rows) == 2


def test_couple_builds_no_forms(monkeypatch):
    def refuse(chart, field):
        raise AssertionError("couple reads no measure-change form")

    monkeypatch.setattr(om, "girsanov_forms", refuse)
    assert run_cli(["couple", "--model", "sphere", "--T", "0.05", "--delta", "0.3",
                    "--paths", "1000", "--field", "rotational"]) == 0


def test_weight_refuses_shot_chart(capsys):
    code = run_cli(["weight", "--model", "warped", "--dim", "3", "--delta", "0.1",
                    "--T", "2e-4", "--dt", "2e-4", "--paths", "8"])
    assert code == 2
    assert "PrecomputedChart" in capsys.readouterr().err


def test_weight_smoke(tmp_path):
    out = tmp_path / "w.json"
    code = run_cli(["weight", "--model", "sphere", "--dim", "2", "--T", "0.1",
                    "--delta", "0.35", "--dt", "1e-3", "--paths", "5000",
                    "--seed", "5", "--out", str(out), "--tube-radius", "0.6"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(doc["results"]["mean_weight"] - 1.0) < 0.01


def test_moment_smoke(tmp_path):
    out = tmp_path / "m.json"
    code = run_cli(["moment", "--model", "sphere", "--dim", "2", "--T", "0.02",
                    "--delta", "0.4,0.2", "--paths", "5000", "--c", "1.0",
                    "--seed", "5", "--out", str(out), "--tube-radius", "0.6"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["results"]["rows"]) == 2


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_defaults_run(tmp_path, command):
    # every subcommand runs on its defaults alone: enough flat paths survive
    # the default tube for each estimator, and for couple, which exits 0 on
    # any survivor count
    out = tmp_path / f"{command}.json"
    assert run_cli([command, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "ok"
    if command == "couple":
        assert doc["results"]["cells"][0]["survivors"] > 0


def test_moment_honours_dt(tmp_path):
    # each dt gives the rows of a direct call with that dt
    argv = ["--model", "sphere", "--dim", "2", "--T", "0.02", "--delta", "0.4,0.3",
            "--paths", "3000", "--seed", "5"]
    rows = {}
    for dt in ("1e-3", "2e-4"):
        out = tmp_path / f"m{dt}.json"
        assert run_cli(["moment", *argv, "--dt", dt, "--out", str(out)]) == 0
        rows[dt] = json.loads(out.read_text())["results"]["rows"]
        cfg = cli.resolve_config({"model": "sphere", "dim": 2, "T": 0.02,
                                  "delta": "0.4,0.3", "dt": dt})
        chart, field = cli._setup(cfg)
        direct, _ = mc.conditional_moment_experiment(
            chart, field, deltas=[0.4, 0.3], c=1.0, T=0.02, n_paths=3000, seed=5,
            dt=float(dt))
        assert rows[dt] == direct
    assert rows["1e-3"] != rows["2e-4"]


# ---------------------------------------------------------------------------
# config file, dumps, determinism
# ---------------------------------------------------------------------------

def test_config_file_with_flag_override(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nmodel = euclidean\ndim = 1\ndelta = 1.0\n"
                   "T = 0.5\ndt = 1e-3\npaths = 5000\nseed = 4\n")
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli(["smallball", "--config", str(ini), "--out", str(out1)]) == 0
    # flags override the file
    assert run_cli(["smallball", "--config", str(ini), "--seed", "9",
                    "--out", str(out2)]) == 0
    c1 = json.loads(out1.read_text())["config"]
    c2 = json.loads(out2.read_text())["config"]
    assert c1["seed"] == 4 and c2["seed"] == 9
    assert c1["paths"] == c2["paths"] == 5000
    assert c1["T"] == c2["T"] == 0.5


def test_config_file_matches_flags(tmp_path):
    values = {"model": "sphere", "curve": "circle:1.0", "field": "rotational",
              "T": "0.05", "delta": "0.25,0.3", "tube-radius": "0.6", "paths": "1024",
              "seed": "1"}
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nbridge = off\n"
                   + "".join(f"{k} = {v}\n" for k, v in values.items()))
    argv = [a for k, v in values.items() for a in (f"--{k}", v)] + ["--no-bridge"]
    docs = []
    for name, args in (("flags", argv), ("file", ["--config", str(ini)])):
        out = tmp_path / f"{name}.json"
        assert run_cli(["couple", *args, "--out", str(out)]) == 0
        docs.append(out.read_bytes())
    assert docs[0] == docs[1]
    assert json.loads(docs[1])["config"]["T"] == 0.05


def test_config_file_refuses_unknown_keys_and_sections(capsys, tmp_path):
    ini = tmp_path / "run.ini"
    for text, name in [("[run]\ndetla = 0.5\n", "detla"),
                       ("[rnu]\ndelta = 0.5\n", "[rnu]"),
                       ("[run]\ndelta = 0.5\n[Run]\nT = 2\n", "[Run]")]:
        ini.write_text(text)
        assert run_cli(["smallball", "--dim", "1", "--paths", "1000",
                        "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err, err


def test_config_file_rejects_unknown_bool(capsys, tmp_path):
    ini = tmp_path / "run.ini"
    base = "[run]\nmodel = euclidean\ndim = 1\ndelta = 1.0\nT = 1.0\npaths = 1000\n"
    ini.write_text(base + "bridge = ture\n")
    assert run_cli(["smallball", "--config", str(ini)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bridge:") and "'ture'" in err
    for word, want in [("Off", False), ("YES", True), ("0", False), ("on", True)]:
        assert cli.resolve_config({"bridge": word})["bridge"] is want


def test_artifact_embeds_version_and_config(tmp_path):
    out = tmp_path / "v.json"
    run_cli(["jmap-check", "--dim", "2", "--trials", "100", "--out", str(out)])
    doc = json.loads(out.read_text())
    import omtube

    assert doc["version"] == omtube.__version__
    assert doc["config"]["dim"] == 2


def test_artifact_bit_identical_across_runs_and_threads(tmp_path):
    args = ["ratio", "--model", "euclidean", "--dim", "2", "--curve",
            "constant", "--T", "0.3", "--delta", "0.6", "--dt", "3e-3",
            "--paths", "40000", "--seed", "13"]
    outs = []
    for name, env_threads in (("r1.json", None), ("r2.json", None),
                              ("r3.json", "3")):
        out = tmp_path / name
        env = dict(os.environ)
        if env_threads:
            env["OMTUBE_THREADS"] = env_threads
        else:
            env.pop("OMTUBE_THREADS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "omtube.cli", *args[0:1], *args[1:],
             "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_dump_ndjson_capped(tmp_path, capsys):
    dump = tmp_path / "paths.ndjson"
    code = run_cli(["smallball", "--dim", "1", "--delta", "1", "--T", "0.2",
                    "--dt", "1e-2", "--paths", "2000", "--seed", "3",
                    "--dump", str(dump), "--max-dump", "7"])
    assert code == 0
    lines = dump.read_text().strip().splitlines()
    assert len(lines) == 7
    rec = json.loads(lines[0])
    assert "times" in rec and "states" in rec
    empty = tmp_path / "empty.ndjson"
    for n in ("-1", "0"):
        code = run_cli(["smallball", "--dim", "1", "--delta", "1", "--T", "0.2",
                        "--dt", "1e-2", "--paths", "1000", "--dump", str(empty),
                        "--max-dump", n])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: max_dump: must be positive, got {n}")
    assert not empty.exists()


@pytest.mark.parametrize("value", ["abc", "0", "1.5"])
def test_bad_thread_count_exits_2(monkeypatch, capsys, value):
    monkeypatch.setenv("OMTUBE_THREADS", value)
    code = run_cli(["smallball", "--dim", "1", "--delta", "1", "--T", "0.2",
                    "--dt", "1e-2", "--paths", "1000"])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"error: OMTUBE_THREADS: expected an integer >= 1, got {value!r}")
    assert mc._resolve_threads(3) == 3  # the argument still overrides the variable


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "omtube.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "omtube" in proc.stdout


def test_import_does_not_load_the_pool():
    # mc imports multiprocessing and concurrent.futures only when it forks
    script = ("import sys, omtube; "
              "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_import_does_not_load_scipy():
    # scipy is imported inside the functions that use it, not by the package,
    # and a grid chart's tables are numpy splines: building one and stepping
    # on it loads no scipy.ndimage
    script = """import sys, omtube
print('scipy' in sys.modules)
from omtube import geometry as geo
base = geo.fermi_chart(geo.warped_diagonal(3, "bump_strong"),
                       geo.constant_curve(T=0.1, point=[0.35, 0.15, -0.25]), 0.3)
at = geo.PrecomputedChart(base, n_nodes=5).at(0.0, [[0.1, -0.05, 0.02]])
at.coriolis(), at.sigma_apply([[1.0, 0.5, -0.5]])
print('scipy.ndimage' in sys.modules)"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
