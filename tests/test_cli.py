import json

import pytest

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
