import json

import numpy as np
import pytest

from rwpath.cli import (KERNEL_CHOICES, OPTIONS, READS, _FAMILY_OF, build_parser, load_config, main,
                        resolve_config)
from rwpath.experiments import make_kernel, make_spec
from rwpath.kernels import DiscreteReweightedKernel
from rwpath.moments import verify_order
from rwpath.potentials import harmonic


def run_cli(capsys, *argv):
    """(exit code, stdout, stderr); an argparse rejection counts as its exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_calibrate_order3_discrete(capsys):
    code, out, _ = run_cli(capsys, "calibrate", "order3-discrete")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["constants"][0] == pytest.approx(2.720699046, abs=5e-8)


def test_calibrate_order4_continuous(capsys):
    code, out, _ = run_cli(capsys, "calibrate", "order4-continuous")
    assert code == 0
    constants = json.loads(out)["result"]["constants"]
    assert constants[0] == pytest.approx(5.768064999, abs=5e-7)
    assert constants[1] == pytest.approx(13.49214669, abs=5e-6)


def test_calibrate_unknown_family_usage_error(capsys):
    code, out, err = run_cli(capsys, "calibrate", "bogus")
    assert code == 2
    assert "unknown family" in err


def test_verify_trotter_fails_with_four_violations(capsys):
    code, out, _ = run_cli(capsys, "verify", "trotter", "--nu", "3")
    assert code == 1
    report = json.loads(out)["report"]
    assert report["pass"] is False
    violated = [e for e in report["entries"] if not e["pass"]]
    assert len(violated) == 4


def test_verify_order4_discrete_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "order4", "--nu", "4")
    assert code == 0
    assert json.loads(out)["report"]["pass"] is True


def test_verify_order3_continuous_nu1_trivially_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "order3-continuous", "--nu", "1")
    assert code == 0


def test_order_subcommand_writes_csv_and_json(tmp_path, capsys):
    out_csv = tmp_path / "ladder.csv"
    code, out, _ = run_cli(
        capsys,
        "order",
        "--potential", "harmonic",
        "--kernel", "trotter",
        "--beta", "2.0",
        "--grid-a", "-6", "--grid-b", "6", "--grid-m", "160",
        "--m-max", "8",
        "--n-ref", "136",
        "--out", str(out_csv),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["slope"] == pytest.approx(2.0, abs=0.3)
    assert payload["config"]["m_max"] == 8
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "n,Z_n,R,alpha_m"
    assert len(lines) == 9  # header + one row per m


def test_cli_outputs_are_deterministic(tmp_path, capsys):
    args = [
        "order",
        "--potential", "harmonic", "--kernel", "trotter",
        "--beta", "2.0", "--grid-a", "-6", "--grid-b", "6", "--grid-m", "80",
        "--m-max", "5", "--n-ref", "88",
    ]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_trotter_constant_subcommand(capsys):
    code, out, _ = run_cli(
        capsys,
        "trotter-constant",
        "--potential", "harmonic",
        "--beta", "2.0",
        "--grid-a", "-6", "--grid-b", "6", "--grid-m", "240",
        "--m-max", "10",
        "--n-ref", "168",
    )
    assert code == 0
    payload = json.loads(out)
    import math

    want = 2.0**3 / 24.0 * 0.5 / math.tanh(1.0)
    assert payload["c_th"] == pytest.approx(want, rel=1e-3)


def test_mc_check_subcommand(capsys):
    code, out, _ = run_cli(
        capsys,
        "mc-check",
        "--potential", "quartic",
        "--kernel", "order4",
        "--beta", "1.0",
        "--levels", "2",
        "--samples", "200000",
        "--seed", "11",
        "--grid-m", "200",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["z_score"] < 4.0


def test_mc_check_single_sample_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "mc-check", "--potential", "quartic", "--kernel", "order4", "--levels", "2",
        "--samples", "1",
    )
    assert code == 2
    assert out == ""
    assert "samples" in err


def test_mc_check_rejects_trotter_kernel(capsys):
    code, _, err = run_cli(capsys, "mc-check", "--kernel", "trotter")
    assert code == 2
    assert "reweighted" in err


def test_mc_check_rejects_continuous_kernel(capsys):
    # a family without a time rule has no discrete slices to chain
    code, _, err = run_cli(capsys, "mc-check", "--kernel", "order4-continuous")
    assert code == 2
    assert "reweighted" in err


@pytest.mark.parametrize("tol", ["nan", "-1", "0"])
def test_verify_tol_not_finite_and_positive_is_a_usage_error(capsys, tol):
    code, out, err = run_cli(capsys, "verify", "order4", "--tol", tol)
    assert code == 2
    assert out == ""
    assert "tol must be finite and positive" in err


def test_verify_free_particle_is_a_usage_error(capsys):
    # the free particle ignores the potential, so no kernel name stands for it
    code, out, err = run_cli(capsys, "verify", "free-particle")
    assert code == 2
    assert out == ""
    assert "invalid choice: 'free-particle'" in err


def test_order_free_particle_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "order", "--kernel", "free-particle", "--potential", "harmonic",
                             "--m-max", "3", "--grid-m", "60")
    assert code == 2
    assert out == ""
    assert "invalid choice: 'free-particle'" in err


@pytest.mark.parametrize("name", KERNEL_CHOICES)
def test_every_kernel_name_resolves_to_a_kernel_and_a_moment_law(capsys, name):
    family = _FAMILY_OF.get(name, name)
    kernel = make_kernel(family, harmonic(1.0))
    assert verify_order(make_spec(family), 1).passed
    _, _, err = run_cli(capsys, "mc-check", "--potential", "harmonic", "--kernel", name, "--levels", "0",
                        "--samples", "2", "--gh-points", "2", "--grid-m", "20")
    accepted = "mc-check needs a discrete reweighted kernel (order3 or order4)" not in err
    assert accepted == isinstance(kernel, DiscreteReweightedKernel) == (name in ("order3", "order4"))


def test_order_refused_reference_is_a_usage_error(capsys):
    # 40 cells under-resolve the quartic: the grid eigensolve refutes the
    # reference Z, which is a configuration error, not a tolerance failure
    code, out, err = run_cli(capsys, "order", "--potential", "quartic", "--m-max", "2", "--grid-m", "40")
    assert code == 2
    assert out == ""
    assert err.startswith("error: reference Z disagrees")


def test_order_underflowed_reference_is_a_usage_error(capsys):
    # at beta = 2000 the harmonic Boltzmann sum underflows to 0, which the
    # reference gap must not divide by
    code, out, err = run_cli(
        capsys, "order", "--potential", "harmonic", "--kernel", "trotter", "--beta", "2000",
        "--m-max", "3", "--grid-m", "60",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "underflows" in err


@pytest.mark.parametrize("beta", ["nan", "inf"])
def test_non_finite_beta_is_a_usage_error(capsys, beta):
    code, out, err = run_cli(capsys, "mc-check", "--potential", "quartic", "--beta", beta)
    assert code == 2
    assert out == ""
    assert "finite and positive" in err


@pytest.mark.parametrize("flag, value", [("--x", "nan"), ("--xp", "inf"), ("--x", "-inf")])
def test_non_finite_endpoint_is_a_usage_error(capsys, flag, value):
    code, out, err = run_cli(capsys, "mc-check", "--potential", "quartic", f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("kernel", ["order4", "order4-continuous"])
def test_verify_nu_8_lists_its_violations_in_seconds(capsys, kernel):
    # eighth-order identities need five time variables (and 5! orderings of
    # the exact-Brownian side), past the old four-variable cap
    import time

    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", kernel, "--nu", "8")
    assert time.perf_counter() - t0 < 10.0
    assert (code, err) == (1, "")
    entries = json.loads(out)["report"]["entries"]
    assert len(entries) == 525 and any(len(e["index"]) == 16 for e in entries)
    # orders 1..4 pass, and every mu = 5 index is still checked
    assert all(e["pass"] for e in entries[:40])
    assert not all(e["pass"] for e in entries[40:82])


def test_mc_check_snaps_its_endpoints_to_the_grid(capsys):
    # the he-cage grid spacing is 7.153/500, so neither 3.0 nor 3.5 is a grid
    # point; both estimators run at the nearest ones, echoed outside "config"
    from rwpath.potentials import he_cage

    code, out, err = run_cli(
        capsys, "mc-check", "--potential", "he-cage", "--x", "3.0", "--xp", "3.5",
        "--levels", "1", "--samples", "2000",
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    pts = np.linspace(0.0, he_cage().params["box"], 501)
    assert payload["x_grid"] == pts[210] and payload["xp_grid"] == pts[245]
    assert (payload["config"]["x"], payload["config"]["xp"]) == (3.0, 3.5)


def test_mc_check_endpoint_outside_the_grid_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "mc-check", "--potential", "quartic", "--x", "4.5")
    assert (code, out) == (2, "")
    assert err.startswith("error: x = 4.5 lies outside the grid")


def test_mc_check_levels_over_the_basis_budget_is_a_usage_error(capsys):
    # 2^40 cells: the tiled time nodes alone would take 32 TiB
    code, out, err = run_cli(capsys, "mc-check", "--levels", "40", "--samples", "100")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "budget" in err


def test_trotter_constant_without_rungs_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "trotter-constant", "--potential", "harmonic", "--m-max", "0", "--n-ref", "200"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "at least one" in err


@pytest.mark.parametrize("command, n_ref, message", [
    # without --n-ref the reference takes 8 (2 m_max + 1) steps
    ("order", (), "n_ref must be an integer >= 0, got -8"),
    ("trotter-constant", (), "n_ref must be an integer >= 0, got -8"),
    ("order", ("--n-ref", "72"), "m_list must be at least 3 consecutive increasing integers"),
    ("trotter-constant", ("--n-ref", "72"), "n_list must hold at least one Trotter step count"),
])
def test_negative_m_max_is_refused_by_what_it_feeds(capsys, command, n_ref, message):
    code, out, err = run_cli(
        capsys, command, "--potential", "harmonic", "--beta", "2.0", "--grid-a", "-6",
        "--grid-b", "6", "--grid-m", "80", "--m-max", "-1", *n_ref,
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_order_too_few_rungs_is_a_usage_error(capsys):
    # two rungs give one alpha value: no slope, so no JSON with a NaN in it
    code, out, err = run_cli(capsys, "order", "--potential", "harmonic", "--m-max", "2")
    assert code == 2
    assert out == ""
    assert "at least 3" in err


def test_config_file_round_trip(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "potential = harmonic\n"
        "kernel = trotter\n"
        "beta = 2.0\n"
        "m_max = 4\n"
        "grid-m = 64\n"
    )
    loaded = load_config(str(cfg_file))
    assert loaded == {
        "potential": "harmonic",
        "kernel": "trotter",
        "beta": 2.0,
        "m_max": 4,
        "grid_m": 64,
    }
    # a config echoed back to a config file resolves to an identical config
    import argparse

    cfg = resolve_config(argparse.Namespace(command="order", config=str(cfg_file)))
    echo_file = tmp_path / "echo.cfg"
    echo_file.write_text("".join(f"{k} = {'none' if v is None else v}\n" for k, v in vars(cfg).items()))
    assert resolve_config(argparse.Namespace(command="order", config=str(echo_file))) == cfg


@pytest.mark.parametrize("argv", [
    ("verify", "order4", "--nu", "2", "--out"),
    ("order", "--potential", "harmonic", "--kernel", "trotter", "--m-max", "3", "--grid-m", "60", "--out"),
    ("verify", "order4", "--config"),
], ids=["verify --out", "order --out", "--config"])
def test_a_directory_as_a_file_is_a_usage_error(tmp_path, capsys, argv):
    # an unreadable config or an unwritable output is a usage error, not a
    # tolerance failure, and nothing is printed before it
    code, out, err = run_cli(capsys, *argv, str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Is a directory" in err


def test_config_file_unknown_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("nonsense = 3\n")
    with pytest.raises(ValueError):
        load_config(str(cfg_file))


@pytest.mark.parametrize("key", ["alpha", "alpha1", "alpha2"])
def test_config_file_explicit_constants_are_unknown_keys(tmp_path, capsys, key):
    # the system constants are always calibrated; no key sets them
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"kernel = order4\n{key} = 9.0\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg_file), "--nu", "2")
    assert code == 2
    assert out == ""
    assert f"unknown configuration key {key!r}" in err


@pytest.mark.parametrize(
    "line", ["kernel = bogus", "kernel = order3-discrete", "kernel = free-particle", "potential = bogus"]
)
def test_config_file_values_are_the_flag_choices(tmp_path, capsys, line):
    # a config value is held to the same choices as its flag
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(line + "\n")
    code, out, err = run_cli(
        capsys, "trotter-constant", "--potential", "harmonic", "--m-max", "4", "--config", str(cfg_file)
    )
    assert code == 2
    assert out == ""
    key, value = (part.strip() for part in line.split("="))
    assert f"invalid {key} {value!r}" in err


def test_config_keys_are_the_flag_names():
    # each subcommand's options, as flags or the verify positional, are
    # exactly the options it reads
    parser = build_parser()
    for command, reads in READS.items():
        argv = [command, "order3-discrete"] if command == "calibrate" else [command]
        dests = set(vars(parser.parse_args(argv))) - {"command", "func", "config", "family"}
        assert dests == set(reads), command


@pytest.mark.parametrize("command", READS)
def test_resolved_config_is_the_read_set(command):
    # a subcommand's config holds the options it reads, each at its default
    import argparse

    cfg = resolve_config(argparse.Namespace(command=command))
    assert vars(cfg) == {name: OPTIONS[name].default for name in READS[command]}


def test_cli_flag_overrides_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("nu = 2\nkernel = order3\n")
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg_file), "--nu", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["nu"] == 3
    assert payload["config"]["kernel"] == "order3"
    assert payload["report"]["nu"] == 3


UNREAD = [(command, name) for command in READS for name in OPTIONS if name not in READS[command]]


@pytest.mark.parametrize("command, name", UNREAD)
def test_options_a_subcommand_does_not_read_are_refused(tmp_path, capsys, command, name):
    kind, _, choices = OPTIONS[name]
    value = choices[0] if choices else str(tmp_path / "written") if kind is str else "3"
    base = [command, "order3-discrete"] if command == "calibrate" else [command]
    code, out, err = run_cli(capsys, *base, f"--{name.replace('_', '-')}={value}")
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{name} = {value}\n")
    code, out, err = run_cli(capsys, *base, "--config", str(cfg_file))
    assert (code, out) == (2, "")
    if command == "calibrate":
        # calibrate reads no option, so it takes no config file either
        assert "unrecognized arguments: --config" in err
    else:
        assert f"{command} does not read configuration key {name!r}" in err
    assert not (tmp_path / "written").exists()


def test_verify_kernel_is_the_positional_only(capsys):
    code, out, err = run_cli(capsys, "verify", "order3", "--kernel", "order4")
    assert (code, out) == (2, "")
    code, out, err = run_cli(capsys, "verify", "order4-discrete")
    assert (code, out) == (2, "")
    assert "invalid choice: 'order4-discrete'" in err


def test_config_echo_is_the_read_set(capsys):
    code, out, _ = run_cli(capsys, "calibrate", "order3-discrete")
    assert code == 0
    assert json.loads(out)["config"] == {}
    code, out, _ = run_cli(capsys, "verify", "order4", "--nu", "2")
    assert code == 0
    assert json.loads(out)["config"] == {"kernel": "order4", "nu": 2, "tol": None, "out": None}


@pytest.mark.parametrize("line", ["m_max = none", "potential = none", "kernel = none", "m_max = 2.5"])
def test_config_value_must_parse_as_its_option(tmp_path, capsys, line):
    # 'none' only restores a default of None; m_max = none used to crash
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(line + "\n")
    code, out, err = run_cli(capsys, "order", "--config", str(cfg_file))
    assert (code, out) == (2, "")
    key, value = (part.strip() for part in line.split("="))
    assert err.startswith(f"error: invalid {key} {value!r}")


def test_mc_check_on_a_wall_is_a_usage_error(capsys, monkeypatch):
    # x = x' = 0 is on the he-cage wall: every path weight is 0, so the
    # standard error is 0 and a z-score would pass vacuously
    import rwpath.cli as cli

    monkeypatch.setattr(cli, "nmm_density_ratio", lambda *a: pytest.fail("nmm built"))
    code, out, err = run_cli(capsys, "mc-check", "--potential", "he-cage", "--samples", "2000")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "x = 0.0, x' = 0.0" in err


def test_mc_check_with_equal_nonzero_weights_is_a_usage_error(capsys, monkeypatch):
    # at beta = 1e-20 every path weight rounds to 1.0: the potential is
    # finite, but the standard error is 0 and a z-score would pass vacuously
    import rwpath.cli as cli

    monkeypatch.setattr(cli, "nmm_density_ratio", lambda *a: pytest.fail("nmm built"))
    code, out, err = run_cli(
        capsys, "mc-check", "--potential", "quartic", "--beta", "1e-20", "--samples", "1000"
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: every sampled path has the same weight 1.0 at x = 0.0, x' = 0.0: "
        "the weights have no spread at this beta\n"
    )


def readme_command_block():
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    return section.split("```bash\n", 1)[1].split("```", 1)[0], section.split("\n## ", 1)[0]


def test_readme_commands_parse():
    import shlex

    block, _ = readme_command_block()
    lines = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("rwpath ")]
    assert len(lines) >= len(READS)
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_readme_lists_each_subcommands_options():
    import re

    _, section = readme_command_block()
    for command, reads in READS.items():
        row = next(r for r in section.splitlines() if r.startswith(f"| `{command}` |"))
        listed = set(re.findall(r"`--([a-z-]+)`", row)) | set(re.findall(r"`\[(\w+)\]`", row))
        assert listed - {"config"} == {name.replace("_", "-") for name in reads}, command
