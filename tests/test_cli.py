import json

import pytest

from hermflow.cli import main, parse_assignments, parse_complex, parse_vector


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_complex_forms():
    assert parse_complex("0.5-0.25i") == 0.5 - 0.25j
    assert parse_complex("i") == 1j
    assert parse_complex("-2i") == -2j
    assert parse_complex("1.5") == 1.5
    with pytest.raises(ValueError):
        parse_complex("banana")


def test_parse_vector_shortcuts():
    import numpy as np
    assert np.allclose(parse_vector("e2", 3), [0, 1, 0])
    assert np.allclose(parse_vector("1,0,i", 3), [1, 0, 1j])
    with pytest.raises(ValueError):
        parse_vector("e5", 3)
    with pytest.raises(ValueError):
        parse_vector("1,2", 3)


def test_parse_assignments():
    vals = parse_assignments("rho=1,D=i,lam=0.5")
    assert vals == {"rho": 1, "D": 1j, "lam": 0.5}


def test_families_listing(capsys):
    code, out, _ = run(capsys, "families")
    assert code == 0
    doc = json.loads(out)
    assert {f["id"] for f in doc["families"]} >= {"Np", "Sv", "Siv3"}


def test_hopf_flat_surface(capsys):
    code, out, _ = run(capsys, "hopf", "--n", "2", "--alpha", "1", "--beta", "0",
                       "--point", "1,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_component"] < 1e-12
    assert doc["components"] == []


def test_hopf_bisectional_value(capsys):
    code, out, _ = run(capsys, "hopf", "--n", "3", "--alpha", "1",
                       "--beta", "-0.5", "--point", "0,0,1",
                       "--xi", "e1", "--nu", "e1")
    assert code == 0
    assert json.loads(out)["bisectional"] == pytest.approx(1.0)


def test_hopf_rejects_inadmissible(capsys):
    code, _, err = run(capsys, "hopf", "--n", "2", "--alpha", "1",
                       "--beta", "-2", "--point", "1,0")
    assert code == 2
    assert "beta > -alpha" in err


def test_hopf_verify_flag(capsys):
    code, out, _ = run(capsys, "hopf", "--n", "3", "--alpha", "1",
                       "--beta", "0.4", "--point", "0.5,0.2,1", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] and doc["oracle_defect"] < 1e-6


def test_flow_summary_and_csv(capsys, tmp_path):
    out_file = tmp_path / "traj.csv"
    code, out, err = run(capsys, "flow", "--name", "gradient", "--n", "3",
                         "--alpha0", "1", "--beta0", "0",
                         "--t-end", "2", "--output", str(out_file))
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["static_ratio"] == pytest.approx(-0.5)
    assert summary["preserves_nonnegativity"] is True
    lines = out_file.read_text().splitlines()
    assert lines[0] == "t,alpha,beta,gamma"
    assert len(lines) > 10


def test_flow_ustinovskiy_not_preserved(capsys, tmp_path):
    out_file = tmp_path / "traj.csv"
    code, out, _ = run(capsys, "flow", "--name", "ustinovskiy", "--n", "3",
                       "--alpha0", "1", "--beta0", "-0.5",
                       "--t-end", "2", "--output", str(out_file))
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["preserves_nonnegativity"] is False
    assert summary["final_gamma"] > -0.5


@pytest.mark.parametrize("argv,option,value", [
    (["hopf", "--n", "2", "--alpha", "1", "--point", "1,0"], "--beta", "-5e-05"),
    (["flow", "--n", "2", "--alpha0", "1", "--beta0", "0", "--t-end", "0.1"],
     "--coeffs", "-0.5,0,0,0"),
    (["hopf", "--n", "2", "--alpha", "1", "--beta", "0"], "--point", "-1,0"),
], ids=["e-notation", "coeff-list", "point"])
def test_negative_option_value_as_separate_token(capsys, argv, option, value):
    code, out, _ = run(capsys, *argv, option, value)
    assert code == 0
    code_eq, out_eq, _ = run(capsys, *argv, f"{option}={value}")
    assert code_eq == 0
    assert out == out_eq


def test_flow_requires_exactly_one_selector(capsys):
    code, _, err = run(capsys, "flow", "--n", "3", "--alpha0", "1",
                       "--beta0", "0")
    assert code == 2 and "exactly one" in err


def test_cplx_command(capsys):
    code, out, _ = run(capsys, "cplx", "--family", "Sv",
                       "--metric", "r2=1,s2=1,t2=1,z=0.2")
    assert code == 0
    doc = json.loads(out)
    assert doc["satisfied"] is False and doc["witness"] is not None
    code, out, _ = run(capsys, "cplx", "--family", "Siii1",
                       "--params", "delta=1", "--metric", "r2=1,s2=1,t2=1")
    assert json.loads(out)["satisfied"] is True


def test_classify_command_family_and_hopf(capsys):
    code, out, _ = run(capsys, "classify", "--family", "Siii1",
                       "--params", "delta=1", "--metric", "r2=1,s2=1,t2=2")
    assert code == 0
    assert json.loads(out)["verdict"] == "non_negative"
    code, out, _ = run(capsys, "classify", "--hopf", "3,1,-0.5")
    assert code == 0
    assert json.loads(out)["verdict"] == "non_negative"


def test_classify_refuses_on_violation(capsys):
    code, out, _ = run(capsys, "classify", "--family", "Sv",
                       "--metric", "r2=1,s2=1,t2=1")
    assert code == 2
    assert json.loads(out)["refused"] is True


@pytest.mark.parametrize("starts", ["0", "-3"])
def test_classify_bad_starts_exits_2(capsys, starts):
    code, out, err = run(capsys, "classify", "--family=Np", "--params=rho=1",
                         "--metric=r2=1,s2=1,t2=1", f"--starts={starts}")
    assert code == 2 and out == ""
    assert err == f"error: starts must be >= 1, got {starts}\n"


def test_invalid_metric_exits_2(capsys):
    code, _, err = run(capsys, "cplx", "--family", "Np", "--params", "rho=1",
                       "--metric", "r2=1,s2=1,t2=1,u=2")
    assert code == 2 and "u" in err
    code, _, err = run(capsys, "cplx", "--family", "Np", "--params", "rho=1",
                       "--metric", "r2=i")
    assert code == 2 and "real" in err


def test_huge_metric_coefficient_exits_2(capsys):
    # |u|^2 overflows a double: the cone test reports it instead of raising
    code, out, err = run(capsys, "cplx", "--family", "Np", "--params", "rho=1",
                         "--metric", "u=1e200")
    assert code == 2 and out == ""
    assert err == "error: r2*s2 > |u|^2 fails: 1.0 <= inf\n"


def test_flow_json_format(capsys, tmp_path):
    out_file = tmp_path / "traj.json"
    code, out, _ = run(capsys, "flow", "--name", "pluriclosed", "--n", "2",
                       "--alpha0", "1", "--beta0", "0", "--t-end", "0.5",
                       "--format", "json", "--output", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["summary"]["F"] == 0.0
    assert max(abs(g) for g in doc["gamma"]) < 1e-12


def test_table3_below_minimum(capsys):
    code, _, err = run(capsys, "table3", "--samples", "5")
    assert code == 2
    assert "below the minimum" in err


def test_table3_small_run_and_corrupted_fixture(capsys, tmp_path):
    code, out, _ = run(capsys, "--seed", "0", "table3", "--samples", "50",
                       "--format", "markdown")
    assert code == 0
    assert "Np/iwasawa" in out

    from hermflow.catalog import load_fixture
    fixture = load_fixture()
    fixture["rows"][1] = dict(fixture["rows"][1], verdict="flat")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(fixture))
    code, _, err = run(capsys, "--seed", "0", "table3", "--samples", "50",
                       "--fixture", str(bad))
    assert code == 1
    assert "mismatch" in err


def test_deterministic_output_bytes(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "--seed", "11", "classify", "--family",
                           "Siv1", "--metric", "r2=1.2,s2=0.9,t2=1.1,u=0.2i")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("HERMFLOW_SEED", "123")
    from hermflow.cli import build_parser
    args = build_parser().parse_args(["families"])
    assert args.seed == 123


def test_seed_env_read_per_command(capsys, monkeypatch):
    # main builds its parser once; the seed default still follows the env
    argv = ("classify", "--family", "Siv1", "--metric", "r2=1.2,s2=0.9,t2=1.1",
            "--starts", "4")
    seeds = []
    for value in ("5", "6"):
        monkeypatch.setenv("HERMFLOW_SEED", value)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        seeds.append(json.loads(out)["seed"])
    assert seeds == [5, 6]
    monkeypatch.setenv("HERMFLOW_SEED", "abc")
    code, out, err = run(capsys, "families")
    assert code == 2
    assert out == ""
    assert err == "error: HERMFLOW_SEED must be an integer, got 'abc'\n"
