import json
import math

import pytest

from hermflow import flows
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


_HOPF = ["hopf", "--n", "2", "--alpha", "1", "--beta", "0"]


@pytest.mark.parametrize("argv,value", [
    (_HOPF + ["--point", "nan,0"], "nan"),
    (_HOPF + ["--point", "inf,0"], "inf"),
    (_HOPF + ["--point", "1,0", "--xi", "nan,0", "--nu", "e1"], "nan"),
    (_HOPF + ["--point", "1,0", "--xi", "e1", "--nu", "1,1+nani"], "1+nani"),
    (["cplx", "--family", "Ni", "--params", "rho=0,lam=0,D=nan"], "nan"),
    (["classify", "--family", "Np", "--params", "rho=1", "--metric", "u=inf"], "inf"),
], ids=["point-nan", "point-inf", "xi-nan", "nu-complex-nan", "params-nan", "metric-inf"])
def test_non_finite_numbers_exit_2(capsys, argv, value):
    # a NaN point used to print "max_component": NaN, which is not JSON
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: number {value!r} must be finite\n"


@pytest.mark.parametrize("argv", [
    ["hopf", "--n", "2", "--alpha", "inf", "--beta", "0", "--point", "1,0"],
    ["hopf", "--n", "2", "--alpha", "1", "--beta", "inf", "--point", "1,0"],
    ["classify", "--hopf", "2,1,inf"],
], ids=["alpha-inf", "beta-inf", "classify-hopf-inf"])
def test_infinite_hopf_parameters_exit_2(capsys, argv):
    # an infinite alpha used to print "alpha": Infinity and exit 0
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: alpha and beta must be finite")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,err", [
    (["hopf", "--n", "2", "--alpha", "1", "--beta", "1e308", "--point", "1,0"],
     "error: curvature block is not finite\n"),
    (["hopf", "--n", "2", "--alpha", "1", "--beta", "8e307", "--point", "0.6,0.8",
      "--xi", "1,1", "--nu", "1,-1"], "error: bisectional value is not finite\n"),
    (["classify", "--hopf", "2,1,1e308"], "error: curvature entries must be finite\n"),
], ids=["block-overflow", "bisectional-overflow", "classify-hopf-overflow"])
def test_huge_finite_hopf_parameters_exit_2(capsys, argv, err):
    # these used to print -Infinity and NaN, which is not JSON, or to warn
    # of the overflow
    assert run(capsys, *argv) == (2, "", err)


@pytest.mark.filterwarnings("error")
def test_hopf_refuses_an_infinite_gamma(capsys):
    # gamma = beta / alpha overflowed and printed "gamma": Infinity, exit 0
    argv = ["hopf", "--n", "2", "--alpha", "1e-300", "--beta", "1e300", "--point", "1,0"]
    assert run(capsys, *argv) == (2, "", "error: gamma = beta / alpha is not finite\n")
    # classify never prints gamma, and keeps its verdict
    code, out, _ = run(capsys, "classify", "--hopf", "2,1e-300,1e300", "--point", "1,0")
    assert code == 0 and json.loads(out)["verdict"] == "non_positive"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [
    ["hopf", "--n", "2", "--alpha", "1", "--beta", "1", "--point"],
    ["classify", "--hopf", "2,1,1", "--point"],
], ids=["hopf", "classify-hopf"])
@pytest.mark.parametrize("point,norm", [
    ("1e-170,0", "1e-170"), ("1e-160,0", "1e-160"), ("1e-60,0", "1e-60"),
    ("1e50,0", "1e+50"), ("1e70,0", "1e+70"), ("1e200,0", "1e+200"),
    ("1e-200,1e-200i", "1.41e-200"), ("1e308,1e308", "1.41e+308"),
])
def test_hopf_points_at_extreme_scales_exit_2(capsys, command, point, norm):
    # these were refused as the origin, warned of a division by zero or of
    # an overflowing norm, or died with an OverflowError traceback: the
    # closed forms divide by |z|^8
    err = (f"error: point norm {norm} is outside [3.49e-39, 3.4e+38], "
           f"where |z|^8 is a finite normal double\n")
    assert run(capsys, *command, point) == (2, "", err)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [
    ["hopf", "--n", "2", "--alpha", "1", "--beta", "1", "--point"],
    ["classify", "--hopf", "2,1,1", "--point"],
], ids=["hopf", "classify-hopf"])
def test_hopf_points_at_the_ends_of_the_range(capsys, command):
    assert run(capsys, *command, "0,0") == (
        2, "", "error: the metric family lives on C^n minus the origin\n")
    for point in ("4e-39,0", "3e38,0"):
        code, out, _ = run(capsys, *command, point)
        assert code == 0 and json.loads(out)


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


@pytest.mark.parametrize("argv,named", [
    (["cplx", "--family=Ni"], "family Ni"),
    (["cplx", "--family=Np", "--params=rho=1,foo=2"], "family Np"),
    (["classify", "--family=Siii2", "--params=x=1"], "family Siii2"),
    (["classify", "--hopf=3.5,1,1"], "--hopf takes an integer n, got '3.5'"),
    (["cplx", "--family=Ni", "--params=rho=0,lam=1i,D=0"], "family Ni takes a real lam"),
], ids=["missing-params", "unknown-param", "params-of-none", "hopf-n-not-integer",
        "complex-real-param"])
def test_bad_family_parameters_exit_2(capsys, argv, named):
    # these used to name a private builder, or print int()'s message
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err and "_builder" not in err


@pytest.mark.parametrize("argv,err", [
    (["classify", "--hopf=3,x,1"], "--hopf takes a real number alpha, got 'x'"),
    (["classify", "--hopf=3,1,1e"], "--hopf takes a real number beta, got '1e'"),
    (["flow", "--coeffs=1,x,0,0", "--n=3", "--alpha0=1", "--beta0=0"],
     "--coeffs takes a real number b, got 'x'"),
    (["flow", "--coeffs=1,0,0,1i", "--n=3", "--alpha0=1", "--beta0=0"],
     "--coeffs takes a real number d, got '1i'"),
], ids=["hopf-alpha", "hopf-beta", "coeffs-b", "coeffs-d"])
def test_non_numeric_entries_exit_2(capsys, argv, err):
    # these printed float()'s message, which names neither option nor entry
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,metric,err", [
    # |u|^2 overflows a double: the cone test reports it instead of raising
    ("cplx", "u=1e200", "error: r2*s2 > |u|^2 fails: 1.0 <= inf\n"),
    # an admissible metric whose curvature overflows: no numpy warning leaks
    ("cplx", "t2=1e160", "error: curvature entries must be finite\n"),
    ("classify", "t2=1e160", "error: curvature entries must be finite\n"),
], ids=["cone-overflow", "cplx-curvature-overflow", "classify-curvature-overflow"])
def test_huge_metric_coefficient_exits_2(capsys, command, metric, err):
    argv = (command, "--family", "Np", "--params", "rho=1", "--metric", metric)
    assert run(capsys, *argv) == (2, "", err)


def test_flow_json_format(capsys, tmp_path):
    out_file = tmp_path / "traj.json"
    code, out, _ = run(capsys, "flow", "--name", "pluriclosed", "--n", "2",
                       "--alpha0", "1", "--beta0", "0", "--t-end", "0.5",
                       "--format", "json", "--output", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["summary"]["F"] == 0.0
    assert max(abs(g) for g in doc["gamma"]) < 1e-12


_LONG_FLOW = ["--coeffs=0.9260382802485345,0.601834073217218,-0.037479006849462815,"
              "0.627068128359271", "--n=2", "--alpha0=1.4042733578616744",
              "--beta0=0.5171694895879323"]
_CONE_EXIT_FLOW = ["--coeffs=-1.5,0.4,1.2,-0.3", "--n=3", "--alpha0=0.8", "--beta0=0.1"]


def _expected_trajectory(argv, fmt):
    """The trajectory bytes as the whole-document encoder wrote them:
    ``json.dumps(doc, sort_keys=True)``, or every state as ``.12g`` rows."""
    opts = dict(arg[2:].split("=", 1) for arg in argv)
    fc = flows.FlowCoefficients(*(float(c) for c in opts["coeffs"].split(",")))
    traj = flows.integrate(float(opts["alpha0"]), float(opts["beta0"]), fc,
                           int(opts["n"]), t_end=10.0)
    if fmt == "csv":
        return "t,alpha,beta,gamma\n" + "".join(
            f"{t:.12g},{a:.12g},{b:.12g},{g:.12g}\n"
            for t, a, b, g in zip(traj.times, traj.alphas, traj.betas, traj.gammas))
    doc = {
        "n": traj.n,
        "coefficients": {"a": fc.a, "b": fc.b, "c": fc.c, "d": fc.d, "name": None},
        "summary": traj.summary(),
        "t": traj.times.tolist(),
        "alpha": traj.alphas.tolist(),
        "beta": traj.betas.tolist(),
        "gamma": traj.gammas.tolist(),
    }
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv,steps,termination", [
    (_LONG_FLOW, 10_001, "reached_t_end"),
    (_CONE_EXIT_FLOW, 907, "left_admissible_cone"),
], ids=["long", "cone-exit"])
def test_flow_trajectory_bytes(capsys, tmp_path, argv, steps, termination, fmt):
    expected = _expected_trajectory(argv, fmt)
    states = expected.count("\n") - 1 if fmt == "csv" else len(json.loads(expected)["t"])
    assert states == steps
    code, out, err = run(capsys, "flow", *argv, f"--format={fmt}")
    assert code == 0
    # stdout ends the JSON document with a newline; a CSV ends with its last row
    assert out == expected + ("\n" if fmt == "json" else "")
    summary = json.loads(err)["summary"]
    assert summary["termination"] == termination
    path = tmp_path / f"traj.{fmt}"
    code, out, err_file = run(capsys, "flow", *argv, f"--format={fmt}", f"--output={path}")
    assert code == 0 and err_file == ""
    assert json.loads(out) == {"summary": summary}
    assert path.read_bytes() == expected.encode()


def test_table3_below_minimum(capsys):
    code, _, err = run(capsys, "table3", "--samples", "5")
    assert code == 2
    assert "below the minimum" in err
    assert err == "error: samples_per_family 5 is below the minimum 50\n"


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


@pytest.mark.parametrize("doc,reason", [
    (None, "cannot read fixture"),
    ("[1, 2", "is not JSON"),
    ("[]", "rows are objects with key and cplx"),
    ('{"samples": 50}', "rows are objects with key and cplx"),
    ('{"rows": [1]}', "rows are objects with key and cplx"),
    ('{"rows": [{"key": "Np/torus"}]}', "rows are objects with key and cplx"),
])
def test_table3_bad_fixture_exits_2_before_regenerating(capsys, tmp_path, monkeypatch,
                                                        doc, reason):
    from hermflow import catalog

    def unexpected(*args, **kwargs):
        raise AssertionError("regenerated the table before reading the fixture")

    monkeypatch.setattr(catalog, "regenerate_table3", unexpected)
    path = tmp_path / "fixture.json"
    if doc is not None:
        path.write_text(doc)
    code, out, err = run(capsys, "table3", "--samples", "50", "--fixture", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(path) in err and reason in err


@pytest.mark.parametrize("argv", [
    ["flow", "--name", "gradient", "--n", "3", "--alpha0", "1", "--beta0", "0",
     "--t-end", "0.1"],
    ["flow", "--name", "gradient", "--n", "3", "--alpha0", "1", "--beta0", "0",
     "--t-end", "0.1", "--format", "json"],
    ["table3", "--samples", "50"],
], ids=["flow", "flow-json", "table3"])
def test_unwritable_output_exits_2(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, "--seed", "0", *argv, "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write ") and str(target) in err


@pytest.mark.parametrize("coeffs,reason", [
    ("0,5e307,0,0", "static ratio"),
    ("0,1e308,0,0", "F must be finite"),
    ("1e308,0,1e308,0", "F must be finite"),
])
def test_flow_with_overflowing_coefficients_exits_2(capsys, coeffs, reason):
    code, out, err = run(capsys, "flow", "--coeffs", coeffs, "--n", "3", "--alpha0", "1",
                         "--beta0", "0", "--t-end", "0.01")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and reason in err


def _strict_json(text):
    """``json.loads`` refusing ``Infinity`` and ``NaN``, which are not JSON."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_flow_into_an_overflow_prints_only_finite_numbers(capsys, fmt):
    # beta passes 9e305 at t = 22.29; the step whose stages overflow a double
    # leaves the cone, where it printed beta = gamma = inf, exit 0
    code, out, err = run(capsys, "flow", "--coeffs", "0,0,1,0", "--n", "3", "--alpha0", "1",
                         "--beta0", "0", "--t-end", "30", "--format", fmt)
    assert code == 0
    summary = _strict_json(err)["summary"]
    assert summary["termination"] == "left_admissible_cone"
    assert 22.2 < summary["exit_time"] < 22.3
    if fmt == "json":
        doc = _strict_json(out)
        assert doc["t"][-1] == summary["exit_time"]
        assert doc["beta"][-1] > 1e305
    else:
        rows = out.splitlines()
        assert rows[0] == "t,alpha,beta,gamma"
        assert all(math.isfinite(float(v)) for row in rows[1:] for v in row.split(","))


def test_flow_step_below_the_floor_exits_2(capsys):
    code, out, err = run(capsys, "flow", "--name", "gradient", "--n", "3", "--alpha0", "1",
                         "--beta0", "0", "--t-end", "1", "--dt", "1e-13")
    assert code == 2 and out == ""
    assert err.startswith("error: dt must be at least") and "MIN_DT" in err


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


@pytest.mark.parametrize("argv, env, message", [
    (["--seed", "-1", "table3", "--samples", "50"], None,
     "error: --seed must be a non-negative integer, got -1\n"),
    (["--seed=-7", "classify", "--family", "Siv1", "--metric", "r2=1,s2=1,t2=1"], None,
     "error: --seed must be a non-negative integer, got -7\n"),
    (["table3", "--samples", "50"], "-5",
     "error: HERMFLOW_SEED must be a non-negative integer, got '-5'\n"),
])
def test_negative_seed_exits_2_naming_its_source(capsys, monkeypatch, argv, env, message):
    if env is None:
        monkeypatch.delenv("HERMFLOW_SEED", raising=False)
    else:
        monkeypatch.setenv("HERMFLOW_SEED", env)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", message)
