import argparse
import json
import math
from pathlib import Path

import pytest

from vilenkin import cli
from vilenkin.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_kernels_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify-kernels", "--radices", "2,3,2", "--depth", "3", "--tol", "1e-9"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    names = {suite["name"] for suite in payload["suites"]}
    assert {"kernel-decomposition", "dirichlet-shift", "r-factor"} <= names


def test_verify_kernels_flags_a_perturbed_decomposition(capsys, monkeypatch):
    # the decomposition error is relative to the grid's largest value, so a
    # 1e-6 relative change at the origin, where that value sits, must fail
    exact = cli.kernel_decomposition_rhs

    def perturbed(structure, A, x, y):
        values = exact(structure, A, x, y)
        values[0, 0] *= 1 + 1e-6
        return values

    monkeypatch.setattr(cli, "kernel_decomposition_rhs", perturbed)
    code, out, _ = run_cli(capsys, "verify-kernels", "--radices", "2,3,2", "--depth", "3")
    assert code == 1
    suites = {suite["name"]: suite for suite in json.loads(out)["suites"]}
    assert suites["kernel-decomposition"]["pass"] is False
    assert 1e-7 < suites["kernel-decomposition"]["max_error"] < 1e-5
    assert all(suite["pass"] for name, suite in suites.items() if name != "kernel-decomposition")


def test_verify_operators_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify-operators", "--radices", "2,3", "--depth", "2", "--points", "5"
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_estimates_schema_and_determinism(capsys):
    args = ("estimates", "--radices", "2,3", "--depth", "3")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args)
    assert first == second  # byte-identical for a fixed config
    payload = json.loads(first)
    ids = [report["estimate"] for report in payload["reports"]]
    assert ids == ["est1", "est2", "fejer", "lemma2"]
    for report in payload["reports"]:
        assert report["zero_mismatches"] == 0
        for row in report["per_order"]:
            assert set(row) == {"n", "max_ratio", "zero_mismatches"}


def test_convergence_writes_artifact(tmp_path, capsys):
    out_path = tmp_path / "reports.json"
    code, _, _ = run_cli(
        capsys,
        "convergence",
        "--radices", "2,2,2,2",
        "--depth", "4",
        "--fn", "indicator:N=1,center=0",
        "--points", "6",
        "--seed", "3",
        "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["function"]["name"] == "indicator"
    assert len(payload["points"]) == 6
    row = payload["points"][0]
    assert set(row) == {"x_digits", "y_digits", "W", "sigma_err", "verdict"}


def test_atoms_experiment(capsys):
    code, out, _ = run_cli(
        capsys, "atoms", "--radices", "2,3", "--depth", "3", "--points", "2", "--seed", "5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["vanishing_max"] < 1e-9
    assert payload["atoms"]
    entry = payload["atoms"][0]
    assert set(entry) == {"seed", "p", "N", "region_integrals", "weak_ratio"}


def test_transform_bench_speedup(capsys):
    code, out, _ = run_cli(capsys, "transform-bench", "--radices", "2,3", "--depth", "8")
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["max_error"] < 1e-12
    assert row["speedup"] > 10.0
    assert payload["blocks"] == [[3, 2, 3, 2], [3, 2, 3, 2]]
    assert math.prod(m for block in payload["blocks"] for m in block) == payload["grid"]


def test_list_functions_catalog(capsys):
    code, out, _ = run_cli(capsys, "list-functions")
    assert code == 0
    names = {entry["name"] for entry in json.loads(out)["functions"]}
    assert {"character", "indicator", "polynomial", "jump", "random"} <= names


def test_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "list-functions", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "key,value"


def test_invalid_config_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify-kernels", "--radices", "2,1")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify-kernels", "--radices", "2", "--depth", "40")
    assert code == 2


def test_unknown_function_rejected(capsys):
    code, _, err = run_cli(capsys, "convergence", "--radices", "2,3", "--fn", "mystery")
    assert code == 2
    assert "unknown test function" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("convergence", "--radices", "2,3", "--fn", "indicator:N=9"), "indicator depth N=9"),
        (("convergence", "--radices", "2,3", "--fn", "indicator:bogus=1"), "unknown parameter(s) bogus"),
        (("verify-operators", "--radices", "2,3", "--points", "-3"), "--points must be >= 1"),
        (("convergence", "--radices", "2,3", "--points", "0"), "--points must be >= 1"),
        (("atoms", "--radices", "2,3", "--depth", "1"), "atoms needs depth >= 2"),
        (("estimates", "--radices", "2,3", "--seed", "1"), "unrecognized arguments: --seed 1"),
        (("convergence", "--radices", "2,3", "--tol", "1e-9"), "unrecognized arguments: --tol 1e-9"),
        (("verify-kernels", "--radices", "2,3", "--points", "3"), "unrecognized arguments: --points 3"),
        (("estimates", "--radices", "2,3", "--bogus"), "unrecognized arguments: --bogus"),
        (("estimates", "--depth", "3"), "the following arguments are required: --radices"),
        (("estimates", "--radices", "2,3", "--depth", "x"), "argument --depth: invalid int value: 'x'"),
        ((), "the following arguments are required: experiment"),
    ],
)
def test_bad_config_exits_2_with_one_line_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_missing_out_directory_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.json"
    for argv in (("list-functions",), ("estimates", "--radices", "2", "--depth", "2")):
        code, out, err = run_cli(capsys, *argv, "--out", str(missing))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "does not exist" in err
    assert not missing.parent.exists()


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize("experiment", ["estimates", "verify-kernels"])
def test_a_tolerance_that_is_not_finite_and_non_negative_exits_2(capsys, experiment, tol):
    code, out, err = run_cli(capsys, experiment, "--radices", "2,3", "--depth", "3", f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--tol must be finite and >= 0" in err


# the flags each experiment reads, besides --out and --format
FLAGS_READ = {
    "verify-kernels": {"--radices", "--depth", "--tol", "--seed"},
    "verify-operators": {"--radices", "--depth", "--tol", "--seed", "--points"},
    "estimates": {"--radices", "--depth", "--tol"},
    "convergence": {"--radices", "--depth", "--seed", "--fn", "--points"},
    "atoms": {"--radices", "--depth", "--tol", "--seed", "--points"},
    "transform-bench": {"--radices", "--depth", "--tol", "--seed"},
    "list-functions": set(),
}


def test_each_experiment_takes_only_the_flags_it_reads():
    (experiments,) = (
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    taken = {
        name: {flag for action in parser._actions for flag in action.option_strings}
        for name, parser in experiments.choices.items()
    }
    assert taken == {
        name: flags | {"-h", "--help", "--out", "--format"} for name, flags in FLAGS_READ.items()
    }


@pytest.mark.parametrize("argv", [("-h",), ("estimates", "-h"), ("list-functions", "--help")])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: vilenkin")


def test_every_readme_command_runs(tmp_path, monkeypatch):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands = [
        line.split()[1:] for line in readme.read_text().splitlines() if line.startswith("vilenkin ")
    ]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv


@pytest.mark.parametrize("suffix", ["", "/"])
def test_out_naming_a_directory_exits_2_and_leaves_no_temp_file(tmp_path, capsys, suffix):
    target = tmp_path / "artifacts"
    target.mkdir()
    code, out, err = run_cli(capsys, "list-functions", "--out", f"{target}{suffix}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.rglob("*")) == [target]
