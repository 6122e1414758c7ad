"""CLI subcommands, config handling, CSV schema, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailent import cli, entropy
from tailent.cli import (_K_MAX_CAP, _TAIL_N_MAX_CAP, ExperimentConfig,
                         load_config, main)
from tailent.entropy import _GRID_BITS_CAP
from tailent.symbolic import _CANTOR_DEPTH_CAP


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


def test_tail_rows_in_schedule_order_match_single_scale_estimates(
        tmp_path, monkeypatch):
    """The schedule is estimated smallest eps first, on one map, but the
    rows come in schedule order and each equals an estimate at its scale
    alone on a fresh map."""
    from tailent import entropy
    from tailent.maps import quadratic_map
    visited = []
    orig = entropy.tail_entropy_estimate

    def recorded(m, eps, **kwargs):
        visited.append(eps)
        return orig(m, eps, **kwargs)

    monkeypatch.setattr(entropy, "tail_entropy_estimate", recorded)
    cfg = ExperimentConfig(name="tail", eps_start=0.2, eps_count=4, n_max=12)
    schedule = cfg.eps_schedule()
    code, text = run_cli(["tail", "--map", "quadratic:4", "--eps-start", "0.2",
                          "--eps-count", "4", "--n-max", "12"], tmp_path)
    assert code == 0
    assert visited == sorted(schedule)
    _, rows = parse_csv(text)
    assert [float(r["eps"]) for r in rows] == schedule
    for r, eps in zip(rows, schedule):
        est = orig(quadratic_map(), eps, n_range=range(1, 13))
        assert (float(r["rate"]), float(r["residual"]), int(r["count"]),
                float(r["delta"])) == (est.rate, est.residual, est.counts[-1],
                                       est.delta)


def test_sft_sweep_reference_column(tmp_path):
    code, text = run_cli(["sft", "--p-min", "3", "--p-max", "10"], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    assert len(rows) == 8
    for r in rows:
        p = int(r["p"])
        assert float(r["reference"]) == pytest.approx(math.log(2 ** p - 1) / p)
        assert abs(float(r["entropy"]) - float(r["reference"])) <= 2.0 ** (1 - p)


def test_sft_spec_file(tmp_path):
    spec = tmp_path / "golden.sft"
    spec.write_text("# golden mean shift\n2\n11\n")
    code, text = run_cli(["sft", "--sft-spec", str(spec)], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    assert [r["shift"] for r in rows] == [str(spec)]
    assert float(rows[0]["entropy"]) == pytest.approx(
        math.log((1 + math.sqrt(5)) / 2), abs=1e-9)


_BAD_SFT_SPECS = {
    "missing": None,
    "directory": None,
    "alphabet-x": "x\n",
    "word-12-over-2": "2\n12\n",
    "alphabet-1": "1\n",
}


@pytest.mark.parametrize("name", sorted(_BAD_SFT_SPECS))
def test_bad_sft_spec_file_exits_2(tmp_path, capsys, name):
    spec = tmp_path / name
    if name == "directory":
        spec.mkdir()
    elif _BAD_SFT_SPECS[name] is not None:
        spec.write_text(_BAD_SFT_SPECS[name])
    code = main(["sft", "--sft-spec", str(spec), "--out",
                 str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: sft-spec:") and "Traceback" not in err


def test_fully_forbidden_sft_spec_exits_3(tmp_path, capsys):
    spec = tmp_path / "empty.sft"
    spec.write_text("2\n0\n1\n")
    code = main(["sft", "--sft-spec", str(spec), "--out",
                 str(tmp_path / "x.csv")])
    assert code == 3
    assert capsys.readouterr().err.startswith("numeric/resource error:")


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


def test_bounds_on_a_constant_map(tmp_path):
    # ||f'|| = 0 there, and log+ 0 = 0
    code, text = run_cli(["bounds", "--map", "poly:[0.5]", "--eps-count", "2"],
                         tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    assert [(r["quasionedim"], r["wmulti"]) for r in rows] == [("0.0", "0.0")] * 2


@pytest.mark.parametrize("spec", ["tent", "snake:eps=0.1"])
def test_bounds_without_derivatives_of_order_l_write_nan(tmp_path, spec):
    # quasionedim reads ||f^(l)|| for the branch count l, which neither map
    # has; the row is written with NaN there, as for wmulti
    code, text = run_cli(["bounds", "--map", spec, "--eps-count", "2"],
                         tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    assert len(rows) == 2 and all(r["quasionedim"] == "nan" for r in rows)


def test_modulus_smoke(tmp_path):
    code, text = run_cli(["modulus", "--map", "identity", "--eps-start", "0.1",
                          "--eps-count", "1", "--grid-bits", "10"], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    assert int(rows[0]["p_eps"]) >= 1


@pytest.mark.parametrize("eps_start", ["0.35", "0.5"])
def test_modulus_eps_outside_bracket_exits_3(tmp_path, capsys, eps_start):
    """N(eps) is bracketed in [eps, 0.35], so a larger eps has no answer."""
    code, text = run_cli(["modulus", "--map", "tent", "--eps-start", eps_start,
                          "--eps-count", "1", "--grid-bits", "10"], tmp_path)
    assert code == 3 and text == ""
    err = capsys.readouterr().err
    assert "eps must lie in (0, 0.35)" in err and "Traceback" not in err


def test_threads_accepts_only_one(tmp_path, capsys):
    """--threads 1 runs as if no flag were given; any other count exits 2."""
    args = ["tail", "--map", "tent", "--eps-count", "2", "--n-max", "10"]
    code, plain = run_cli(args, tmp_path, "plain.csv")
    assert code == 0 and plain
    assert run_cli(args + ["--threads", "1"], tmp_path, "one.csv") == (0, plain)
    capsys.readouterr()
    assert run_cli(args + ["--threads", "2"], tmp_path, "two.csv") == (2, "")
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: threads:")


GOLDEN_CLI = json.loads(
    (Path(__file__).parent / "golden" / "cli.json").read_text())


@pytest.mark.parametrize("command", list(GOLDEN_CLI))
def test_csv_matches_golden_hash(tmp_path, command):
    """The cheap fixed runs, each command of tests/golden/cli.json, write
    the CSV whose sha256 the file holds.  A change that moves one CSV
    re-captures its hash and says why."""
    out = tmp_path / "out.csv"
    assert main(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CLI[command]


def test_config_file_and_flag_override(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("map_spec = identity\neps-count = 2\nn_max = 5\n")
    cfg = load_config("entropy", str(cfg_file), {"n_max": 7})
    assert cfg.map_spec == "identity"
    assert cfg.eps_count == 2
    assert cfg.n_max == 7  # flag wins


def test_config_hash_excludes_out():
    a = ExperimentConfig(name="tail", out="x.csv")
    b = ExperimentConfig(name="tail", out="y.csv")
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


def test_verify_subcommand_combinatorics(capsys):
    assert main(["verify", "--tag", "combinatorics"]) == 0
    out = capsys.readouterr().out
    assert "PASS 1-combinatorics" in out


@pytest.mark.parametrize("tag", ["determinism", "nosuchtag"])
def test_verify_tag_selecting_nothing_exits_2(capsys, monkeypatch, tag):
    """A tag that no criterion carries is refused before any criterion runs."""
    from tailent import acceptance

    def ran():
        raise AssertionError("a criterion ran")
    monkeypatch.setattr(acceptance, "CRITERIA", [
        (name, tags, ran, budget)
        for name, tags, _, budget in acceptance.CRITERIA])
    assert main(["verify", "--tag", tag]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: tag: no criterion has tag '{tag}'")
    assert "Traceback" not in err


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


def test_entropy_run_does_not_fault_per_window(tmp_path):
    """The greedy kernels reuse one window buffer per call.  Wide fresh
    temporaries per center go back to the operating system when freed and
    fault in again: that cost this run over 250,000 minor faults, against
    about 7,000 with the buffer (glibc, 2-core x86-64 host)."""
    import resource
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "-m", "tailent.cli", "entropy", "--map", "quadratic:4",
         "--grid-bits", "15", "--n-max", "12", "--eps-count", "1",
         "--out", str(tmp_path / "e.csv")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": "src"})
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    assert proc.returncode == 0, proc.stderr
    assert faults < 50_000


def test_snake_tail_runs_in_a_subprocess(tmp_path):
    """The snake's flat part contributes no critical points, so its tail
    pullback splits balls only at its few turning points and finishes."""
    out = tmp_path / "snake.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "tailent.cli", "tail", "--map", "snake:eps=0.1",
         "--eps-count", "2", "--n-max", "8", "--out", str(out)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": "src"})
    assert proc.returncode == 0, proc.stderr
    _, rows = parse_csv(out.read_text())
    assert len(rows) == 2


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


def test_orbit_cap_boundary_without_allocating(monkeypatch, no_grid_allocation):
    from tailent import entropy
    from tailent.errors import ResourceError
    from tailent.maps import tent_map
    cap = entropy._ORBIT_BYTE_CAP
    # n rows of 2^b + 1 float64 cells fit a cap of exactly that many bytes;
    # one more row, or one byte less of cap, does not.  eps 0.5 has 8 grid
    # points even at 2^4 cells, so a request in the cap builds the grid.
    for n, bits in ((1, 4), (2, 10), (8, 20)):
        need = 8 * n * (2 ** bits + 1)
        monkeypatch.setattr(entropy, "_ORBIT_BYTE_CAP", need)
        with pytest.raises(AssertionError, match="grid allocated"):
            entropy._GridOrbits(tent_map(), bits).rows(n, 0.5)
        with pytest.raises(ResourceError):
            entropy._GridOrbits(tent_map(), bits).rows(n + 1, 0.5)
        monkeypatch.setattr(entropy, "_ORBIT_BYTE_CAP", need - 1)
        with pytest.raises(ResourceError):
            entropy._GridOrbits(tent_map(), bits).rows(n, 0.5)
    monkeypatch.setattr(entropy, "_ORBIT_BYTE_CAP", cap)
    with pytest.raises(ResourceError):
        entropy._GridOrbits(tent_map(), 23).rows(24, 0.1)
    with pytest.raises(AssertionError, match="grid allocated"):
        entropy._GridOrbits(tent_map(), 23).rows(7, 0.1)


# ---------------------------------------------------------------------------
# size caps and refused flag values
# ---------------------------------------------------------------------------

@pytest.fixture
def nothing_built(monkeypatch):
    """Fail the test if a map, a weight, an SFT, a Cantor set, an estimate
    or a snake sample is built."""
    from tailent import cli, entropy, maps, rates, symbolic

    def refuse(*args, **kwargs):
        raise AssertionError("built")

    monkeypatch.setattr(maps.np, "linspace", refuse)

    monkeypatch.setattr(symbolic, "build_Yp", refuse)
    monkeypatch.setattr(symbolic, "middle_cantor", refuse)
    monkeypatch.setattr(entropy, "tail_entropy_estimate", refuse)
    monkeypatch.setattr(cli, "_map_for", refuse)
    monkeypatch.setattr(rates, "parse_weight", refuse)


@pytest.mark.parametrize("args", [
    ["sft", "--p-max", "21"],
    ["sft", "--p-min", "3", "--p-max", "1000000"],
    ["thickness", "--cantor", "remove-middle 1/3 depth 17"],
    ["thickness", "--cantor", "remove-middle 1/3 depth 100000000000"],
    ["tail", "--eps-count", "257"],
    ["tail", "--eps-count", "10000000000"],
    ["tail", "--n-max", "1025"],
    ["tail", "--n-max", "10000000000"],
    ["weights", "--k-max", "100001"],
    ["weights", "--k-max", "10000000000"],
    ["snake", "--eps-start", "1e-6", "--eps-count", "1"],
    ["snake", "--eps-start", "1e-9", "--eps-count", "1"],
    ["snake", "--eps-start", "1e-300", "--eps-count", "1"],
])
def test_size_over_cap_exits_3_before_building(tmp_path, capsys, nothing_built,
                                               args):
    code = main(args + ["--out", str(tmp_path / "x.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric/resource error:") and "cap" in err


def test_size_caps_boundaries(nothing_built):
    from tailent import cli, symbolic
    from tailent.errors import ResourceError
    cfg = ExperimentConfig(name="sft", p_min=2, p_max=cli._SFT_P_CAP)
    assert cfg.p_range() == range(2, cli._SFT_P_CAP + 1)
    cfg.p_max += 1
    with pytest.raises(ResourceError):
        cfg.p_range()
    cfg = ExperimentConfig(name="tail", eps_count=cli._EPS_COUNT_CAP)
    assert len(cfg.eps_schedule()) == cli._EPS_COUNT_CAP
    cfg.eps_count += 1
    with pytest.raises(ResourceError):
        cfg.eps_schedule()
    cfg = ExperimentConfig(name="tail", n_max=cli._TAIL_N_MAX_CAP)
    assert cfg.n_range(cli._TAIL_N_MAX_CAP) == range(1, cli._TAIL_N_MAX_CAP + 1)
    cfg.n_max += 1
    with pytest.raises(ResourceError):
        cfg.n_range(cli._TAIL_N_MAX_CAP)
    assert cfg.n_range() == range(1, cli._TAIL_N_MAX_CAP + 2)
    cfg = ExperimentConfig(name="weights", k_max=cli._K_MAX_CAP)
    assert cfg.k_range() == range(cli._K_MAX_CAP + 1)
    cfg.k_max += 1
    with pytest.raises(ResourceError):
        cfg.k_range()
    depth = symbolic._CANTOR_DEPTH_CAP
    with pytest.raises(AssertionError, match="built"):
        symbolic.parse_cantor_spec(f"remove-middle 1/3 depth {depth}")
    with pytest.raises(ResourceError):
        symbolic.parse_cantor_spec(f"remove-middle 1/3 depth {depth + 1}")


def test_grid_bits_cap_before_the_grid_size(no_grid_allocation):
    from tailent import entropy
    from tailent.errors import ResourceError
    from tailent.maps import tent_map
    bits = entropy._GRID_BITS_CAP
    # the largest grid whose 2^bits + 1 points fit in one orbit row
    assert (2 ** bits + 1) * 8 <= entropy._ORBIT_BYTE_CAP
    assert (2 ** (bits + 1) + 1) * 8 > entropy._ORBIT_BYTE_CAP
    with pytest.raises(AssertionError, match="grid allocated"):
        entropy._GridOrbits(tent_map(), bits).rows(1, 0.1)
    # 2^(10^12) would not fit in memory as an int, let alone as a grid
    for over in (bits + 1, 10 ** 12):
        with pytest.raises(ResourceError, match="grid-bits"):
            entropy._GridOrbits(tent_map(), over).rows(1, 0.1)


@pytest.mark.parametrize("args,field", [
    (["sft", "--p-min", "1"], "p-min"),
    (["sft", "--p-min", "5", "--p-max", "4"], "p-max"),
    (["weights", "--k-max=-1"], "k-max"),
    (["snake", "--lambda-u", "nan"], "snake"),
    (["snake", "--rate", "pow:1e"], "rate"),
    (["thickness", "--cantor", "remove-middle 1/0 depth 3"], "cantor"),
    (["thickness", "--cantor", "remove-middle 1/3 depth 1.5"], "cantor"),
] + [([experiment, "--threads", threads], "threads")
     for experiment in ("entropy", "tail", "bounds", "reparam", "sft",
                        "thickness", "weights", "snake", "modulus")
     for threads in ("0", "-2")] + [
    (["thickness", "--cantor", "remove-middle 1/3 depth -1"], "cantor"),
    (["weights", "--k-max", "0"], "k-max"),
    (["weights", "--k-max", "1"], "k-max"),
])
def test_refused_values_exit_2(tmp_path, capsys, nothing_built, args, field):
    code = main(args + ["--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}:")


_MAP_FOR = cli._map_for
_TAIL_ESTIMATE = entropy.tail_entropy_estimate


@pytest.mark.parametrize("args,code,message", [
    (["snake", "--eps-start", "5e-324", "--eps-count", "1"], 3, "cap"),
    (["bounds", "--map", "snake:eps=5e-324"], 3, "cap"),
    (["bounds", "--map", "snake:eps=1e-300"], 3, "cap"),
    (["tail", "--map", "snake:eps=0.1,C=nan"], 2, "finite C > eps"),
    (["modulus", "--map", "snake:eps=0.1,C=nan"], 2, "finite C > eps"),
    (["entropy", "--n-max", "9223372036854775808"], 3, "cap"),
    # 5e-324 * 0.5 rounds to 0; the smallest scale is estimated first
    (["tail", "--eps-start", "5e-324"], 3, "0 < eps"),
])
def test_edge_values_in_range_exit_2_or_3_without_traceback(
        capsys, monkeypatch, nothing_built, args, code, message):
    """Values that pass the flag checks but overflow a snake's window search
    or sample count, a NaN snake offset, an n-max whose time list would not
    fit in memory and a schedule that underflows to 0.  The map spec and
    the tail scale are what is refused, so the map is parsed and the tail
    estimate is called; no sample, grid or pullback is built."""
    monkeypatch.setattr(cli, "_map_for", _MAP_FOR)
    monkeypatch.setattr(entropy, "tail_entropy_estimate", _TAIL_ESTIMATE)
    assert main(args + ["--out", os.devnull]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_entropy_n_max_cap_is_the_orbit_byte_cap(no_grid_allocation):
    for bits in (1, 14, _GRID_BITS_CAP):
        cap = entropy._orbit_rows_cap(bits)
        assert 8 * cap * (2 ** bits + 1) <= entropy._ORBIT_BYTE_CAP
        assert 8 * (cap + 1) * (2 ** bits + 1) > entropy._ORBIT_BYTE_CAP
        args = ["entropy", "--grid-bits", str(bits), "--eps-count", "1",
                "--out", os.devnull]
        assert main(args + ["--n-max", str(cap + 1)]) == 3
        if bits == 1:
            # 2^1 cells resolve no eps below 1: the 44.7 million times of
            # the largest n-max are refused before they are listed
            assert main(args + ["--n-max", str(cap)]) == 3
        else:
            # the largest n-max goes on to build the grid
            with pytest.raises(AssertionError, match="grid allocated"):
                main(args + ["--n-max", str(cap)])


def _parses_as_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


_NON_NUMERIC = st.text(max_size=12).filter(lambda s: not _parses_as_float(s))
_NOT_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "1e999"])


def _floats(**kwargs):
    return st.floats(allow_nan=False, allow_infinity=False, **kwargs).map(repr)


def _ints(**kwargs):
    return st.integers(**kwargs).map(str)


# For each numeric flag, the subcommand that reads it and values it must
# refuse: the flag's type rejects text, and the program rejects non-finite
# values, values at or below zero where the flag must be positive, and sizes
# over the caps; for the Cantor spec, negative depths and depths over the
# cap.  No valid value is drawn, so no estimate runs.
_REFUSED = {
    "--eps-start": ("tail", st.one_of(_NON_NUMERIC, _NOT_FINITE,
                                      _floats(max_value=0.0),
                                      _floats(min_value=1.0))),
    "--eps-ratio": ("tail", st.one_of(_NON_NUMERIC, _NOT_FINITE,
                                      _floats(max_value=0.0),
                                      _floats(min_value=1.0))),
    "--eps-count": ("tail", st.one_of(_NON_NUMERIC, _NOT_FINITE,
                                      _ints(max_value=0),
                                      _ints(min_value=257))),
    "--n-max": ("tail", st.one_of(_NON_NUMERIC, _NOT_FINITE,
                                  _ints(max_value=0),
                                  _ints(min_value=_TAIL_N_MAX_CAP + 1))),
    "--threads": ("tail", st.one_of(_NON_NUMERIC, _NOT_FINITE,
                                    _ints(max_value=0))),
    "--grid-bits": ("entropy", st.one_of(
        _NON_NUMERIC, _NOT_FINITE, _ints(max_value=0),
        _ints(min_value=_GRID_BITS_CAP + 1))),
    "--lambda-u": ("snake", st.one_of(_NON_NUMERIC, _NOT_FINITE,
                                      _floats(max_value=0.0))),
    "--m0": ("modulus", st.one_of(_NON_NUMERIC, _NOT_FINITE,
                                  _floats(max_value=1.9999999999999998))),
    "--p-min": ("sft", st.one_of(_NON_NUMERIC, _NOT_FINITE,
                                 _ints(max_value=1))),
    "--p-max": ("sft", st.one_of(_NON_NUMERIC, _NOT_FINITE,
                                 _ints(max_value=2), _ints(min_value=21))),
    "--k-max": ("weights", st.one_of(_NON_NUMERIC, _NOT_FINITE,
                                     _ints(max_value=1),
                                     _ints(min_value=_K_MAX_CAP + 1))),
    "--cantor": ("thickness", st.builds(
        "remove-middle {} depth {}".format,
        st.sampled_from(["1/3", "1/5", "1/2", "9/10"]),
        st.one_of(st.integers(max_value=-1),
                  st.integers(min_value=_CANTOR_DEPTH_CAP + 1)))),
}


@st.composite
def _refused_flag(draw):
    flag = draw(st.sampled_from(sorted(_REFUSED)))
    experiment, values = _REFUSED[flag]
    return [experiment, f"{flag}={draw(values)}"]


@settings(max_examples=150, deadline=2000, derandomize=True)
@given(_refused_flag())
def test_refused_flag_values_exit_2_or_3_without_traceback(args):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(args + ["--out", os.devnull])
        except SystemExit as exc:      # argparse refuses a value of bad type
            code = exc.code
    assert code in (2, 3), (args, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
