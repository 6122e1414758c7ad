"""CLI subcommands, config handling, CSV schema, determinism."""

import math
import os
import subprocess
import sys

import pytest

from tailent.cli import ExperimentConfig, load_config, main


def run_cli(args, tmp_path, name="out.csv", env=None):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


def test_unknown_map_spec_exits_2(tmp_path, capsys):
    code = main(["entropy", "--map", "henon:1.4", "--out",
                 str(tmp_path / "x.csv")])
    assert code == 2
    assert "map" in capsys.readouterr().err


def test_bad_schedule_exits_2(tmp_path, capsys):
    code = main(["tail", "--eps-ratio", "1.5", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "eps-ratio" in capsys.readouterr().err


def test_numeric_error_exits_3(tmp_path, capsys):
    code = main(["entropy", "--map", "tent", "--eps-start", "1e-6",
                 "--eps-count", "1", "--grid-bits", "10",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["quadratic:5", "poly:[0,2]"])
def test_invalid_map_parameters_exit_2(tmp_path, capsys, spec):
    code = main(["entropy", "--map", spec, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: map:")


@pytest.mark.parametrize("experiment", ["entropy", "tail"])
def test_n_max_below_one_exits_2(tmp_path, capsys, experiment):
    code = main([experiment, "--n-max", "0", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "n-max" in capsys.readouterr().err


def test_entropy_identity_all_rates_zero(tmp_path):
    code, text = run_cli(["entropy", "--map", "identity", "--eps-count", "2",
                          "--n-max", "6", "--grid-bits", "10"], tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    assert header[:2] == ["schema", "config"]
    assert rows and all(float(r["slope"]) == 0.0 for r in rows)
    assert all(r["schema"] == "1" for r in rows)


def test_tail_tent_rows_and_bound_columns(tmp_path):
    code, text = run_cli(["tail", "--map", "tent", "--eps-start", "0.125",
                          "--eps-count", "6", "--n-max", "12"], tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    assert len(rows) == 6
    for r in rows:
        eps = float(r["eps"])
        assert float(r["bound_log2"]) == pytest.approx(
            math.log(2) / abs(math.log(eps)))
        assert float(r["bound_log4"]) == pytest.approx(
            math.log(4) / abs(math.log(eps)))


def test_sft_sweep_reference_column(tmp_path):
    code, text = run_cli(["sft", "--p-min", "3", "--p-max", "10"], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    assert len(rows) == 8
    for r in rows:
        p = int(r["p"])
        assert float(r["reference"]) == pytest.approx(math.log(2 ** p - 1) / p)
        assert abs(float(r["entropy"]) - float(r["reference"])) <= 2.0 ** (1 - p)


def test_snake_thickness_weights_bounds_smoke(tmp_path):
    assert run_cli(["snake", "--eps-start", "0.1", "--eps-count", "2"],
                   tmp_path, "s.csv")[0] == 0
    code, text = run_cli(["thickness", "--cantor", "remove-middle 1/3 depth 8"],
                         tmp_path, "t.csv")
    assert code == 0 and "1.0" in text
    assert run_cli(["weights", "--weight", "kpow2", "--k-max", "10"],
                   tmp_path, "w.csv")[0] == 0
    assert run_cli(["bounds", "--map", "quadratic:4.0", "--eps-count", "3"],
                   tmp_path, "b.csv")[0] == 0


def test_modulus_smoke(tmp_path):
    code, text = run_cli(["modulus", "--map", "identity", "--eps-start", "0.1",
                          "--eps-count", "1", "--grid-bits", "10"], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    assert int(rows[0]["p_eps"]) >= 1


def test_determinism_across_threads(tmp_path):
    texts = []
    for threads in ("1", "3"):
        _, text = run_cli(["tail", "--map", "tent", "--eps-count", "2",
                           "--n-max", "10", "--threads", threads],
                          tmp_path, f"d{threads}.csv")
        texts.append(text)
    assert texts[0] == texts[1]


def test_config_file_and_flag_override(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("map_spec = identity\neps-count = 2\nn_max = 5\n")
    cfg = load_config("entropy", str(cfg_file), {"n_max": 7})
    assert cfg.map_spec == "identity"
    assert cfg.eps_count == 2
    assert cfg.n_max == 7  # flag wins


def test_config_hash_excludes_threads():
    a = ExperimentConfig(name="tail", threads=1, out="x.csv")
    b = ExperimentConfig(name="tail", threads=8, out="y.csv")
    c = ExperimentConfig(name="tail", eps_count=3)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_bad_config_key_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("speed = 11\n")
    code = main(["entropy", "--config", str(cfg_file),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "speed" in capsys.readouterr().err


def test_bad_config_value_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("n_max=abc\n")
    code = main(["entropy", "--config", str(cfg_file),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "config error: n_max: expected int, got 'abc'\n"


def test_bad_env_threads_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TAILENT_THREADS", "x")
    code = main(["sft", "--p-min", "3", "--p-max", "3",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "config error: threads: expected int, got 'x'\n"
    # an explicit flag wins, so the variable is not read
    assert main(["sft", "--p-min", "3", "--p-max", "3", "--threads", "1",
                 "--out", str(tmp_path / "y.csv")]) == 0


def test_env_thread_default(tmp_path, monkeypatch):
    monkeypatch.setenv("TAILENT_THREADS", "2")
    code, text = run_cli(["tail", "--map", "tent", "--eps-count", "1",
                          "--n-max", "8"], tmp_path)
    assert code == 0 and text


def test_verify_subcommand_combinatorics(capsys):
    assert main(["verify", "--tag", "combinatorics"]) == 0
    out = capsys.readouterr().out
    assert "PASS 1-combinatorics" in out


def test_console_entry_point(tmp_path):
    """The installed script runs end to end."""
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "tailent.cli", "sft", "--p-min", "3",
         "--p-max", "4", "--out", str(out)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src"})
    assert proc.returncode == 0
    assert out.read_text().startswith("schema,config")


@pytest.mark.parametrize("experiment", ["entropy", "modulus"])
@pytest.mark.parametrize("bits", ["0", "-3"])
def test_grid_bits_below_one_exits_2(tmp_path, capsys, experiment, bits):
    code = main([experiment, "--grid-bits", bits, "--eps-count", "1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: grid-bits:") and "Traceback" not in err


@pytest.fixture
def no_grid_allocation(monkeypatch):
    """Fail the test if a grid or an orbit matrix is built."""
    from tailent import entropy

    def refuse(*args, **kwargs):
        raise AssertionError("grid allocated")

    monkeypatch.setattr(entropy, "_default_grid", refuse)
    monkeypatch.setattr(entropy, "_orbit_matrix", refuse)


@pytest.mark.parametrize("experiment", ["entropy", "modulus"])
def test_grid_bits_over_orbit_cap_exits_3(tmp_path, capsys, no_grid_allocation,
                                         experiment):
    code = main([experiment, "--grid-bits", "50", "--eps-count", "1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "cap" in err and "Traceback" not in err


class _UnbuiltGrid:
    """A grid of the given length that fails when turned into an array."""

    def __init__(self, size):
        self.size = size

    def __len__(self):
        return self.size

    def __array__(self, *args, **kwargs):
        raise AssertionError("grid allocated")


def test_orbit_cap_boundary_without_allocating(no_grid_allocation):
    from tailent import entropy
    from tailent.errors import ResourceError
    from tailent.maps import tent_map
    cells = entropy._ORBIT_BYTE_CAP // 8
    # 2^27 float64 cells fit; one more row or column does not
    for n, size in ((1, cells), (2, cells // 2), (8, cells // 8)):
        with pytest.raises(AssertionError, match="grid allocated"):
            entropy._grid_orbits(tent_map(), n, 0.1, grid=_UnbuiltGrid(size))
        with pytest.raises(ResourceError):
            entropy._grid_orbits(tent_map(), n, 0.1, grid=_UnbuiltGrid(size + 1))
        with pytest.raises(ResourceError):
            entropy._grid_orbits(tent_map(), n + 1, 0.1, grid=_UnbuiltGrid(size))
    with pytest.raises(ResourceError):
        entropy._grid_orbits(tent_map(), 24, 0.1, grid_bits=23)
    with pytest.raises(AssertionError, match="grid allocated"):
        entropy._grid_orbits(tent_map(), 7, 0.1, grid_bits=23)
