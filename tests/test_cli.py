"""CLI: problem loading, subcommands, exit codes, and report determinism."""

import json
import os

import numpy as np
import pytest

from parakahler.cli import (
    EXIT_DEGENERATE,
    EXIT_IDENTITY,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    ProblemError,
    load_problem,
    main,
)
from parakahler.expr import MAX_NESTING

PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "problems")


def write_problem(tmp_path, payload, name="problem.json"):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return path


def lagrangian_payload(**overrides):
    payload = {
        "name": "sample",
        "kind": "lagrangian",
        "n": 1,
        "lagrangian": "x1*y1",
        "initial_state": [1.0, 1.0],
        "integrator": {"scheme": "rk4", "t0": 0.0, "t1": 1.0, "h": 0.01},
        "seed": 0,
    }
    payload.update(overrides)
    return payload


class TestLoadProblem:
    def test_roundtrip(self, tmp_path):
        path = write_problem(tmp_path, lagrangian_payload())
        problem = load_problem(path)
        assert problem.kind == "lagrangian"
        assert problem.n == 1
        assert problem.initial_state == (1.0, 1.0)
        assert problem.h == 0.01

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProblemError):
            load_problem(os.path.join(tmp_path, "absent.json"))

    def test_bad_kind(self, tmp_path):
        path = write_problem(tmp_path, lagrangian_payload(kind="pde"))
        with pytest.raises(ProblemError):
            load_problem(path)

    def test_bad_initial_state_length(self, tmp_path):
        path = write_problem(tmp_path, lagrangian_payload(initial_state=[1.0]))
        with pytest.raises(ProblemError):
            load_problem(path)

    def test_negative_step(self, tmp_path):
        payload = lagrangian_payload()
        payload["integrator"]["h"] = -0.5
        path = write_problem(tmp_path, payload)
        with pytest.raises(ProblemError):
            load_problem(path)

    def test_name_defaults_to_stem(self, tmp_path):
        payload = lagrangian_payload()
        del payload["name"]
        path = write_problem(tmp_path, payload, name="fallback.json")
        assert load_problem(path).name == "fallback"


def _integrator(**fields):
    return lagrangian_payload(integrator=dict(
        {"scheme": "rk4", "t0": 0.0, "t1": 1.0, "h": 0.01}, **fields))


class TestMalformedProblem:
    @pytest.mark.parametrize("command,payload,message", [
        ("integrate", _integrator(t0=1.0, t1=1.0), "t1 must exceed t0"),
        ("integrate", _integrator(t1=1e9), "steps exceed the limit"),
        ("integrate", _integrator(h=float("nan")), "step size h must be positive"),
        ("integrate", _integrator(h=0.3), "t1 - t0 = 1 is not a whole number of steps "
                                          "of h = 0.3 (3.33333333 steps)"),
        ("integrate", _integrator(h=2.5), "t1 - t0 = 1 is not a whole number of steps "
                                          "of h = 2.5 (0.4 steps)"),
        ("derive", lagrangian_payload(tol="abc"), "tol must be a finite positive number"),
        ("check", {"kind": "metric", "n": 1, "metric": {"matrix": [["0", "1"]]}},
         "metric matrix must be 2 rows of 2 entries"),
        ("check", {"kind": "metric", "n": 1, "metric": {"potential": 5}},
         "metric potential must be an expression string"),
        ("integrate", lagrangian_payload(initial_state=[float("nan"), 1.0]),
         "initial_state must be a list of 2n = 2 finite numbers"),
        ("derive", lagrangian_payload(n=True), "n must be an integer >= 1"),
        ("derive", lagrangian_payload(seed=True), "seed must be a non-negative integer"),
        ("integrate", lagrangian_payload(initial_state=[True, False]),
         "initial_state must be a list of 2n = 2 finite numbers"),
        ("integrate", _integrator(t0=False, t1=True), "integrator: t0 must be a number, got False"),
        ("integrate", _integrator(t1=True), "integrator: t1 must be a number, got True"),
        ("integrate", _integrator(h=True), "integrator: h must be a number, got True"),
        ("integrate", _integrator(t1=" 1e-1 "), "integrator: t1 must be a number, got ' 1e-1 '"),
        ("integrate", _integrator(h=float("inf")), "step size h must be positive and finite"),
        ("integrate", _integrator(t1=10**400),
         "integrator: t1 must be a number, got an integer beyond float range"),
        ("integrate", lagrangian_payload(initial_state=[10**400, 1.0]),
         "initial_state must be a list of 2n = 2 finite numbers, got an integer beyond float range"),
        ("derive", lagrangian_payload(tol=10**400),
         "tol must be a finite positive number, got an integer beyond float range"),
        ("check", {"kind": "metric", "n": 1, "metric": {"model": False}},
         "metric model must be true, got False"),
        ("check", {"kind": "metric", "n": 1, "metric": {"model": 1}},
         "metric model must be true, got 1"),
        ("check", {"kind": "metric", "n": 1, "metric": {"model": "no"}},
         "metric model must be true, got 'no'"),
    ], ids=["t1-not-after-t0", "too-many-steps", "nan-step", "span-short-of-t1",
            "span-past-t1", "tol-string",
            "matrix-1x2", "potential-number", "nan-initial-state", "boolean-n",
            "boolean-seed", "boolean-initial-state", "boolean-t0", "boolean-t1", "boolean-h",
            "string-t1", "infinite-step", "huge-t1", "huge-initial-state", "huge-tol",
            "model-false", "model-one", "model-string"])
    def test_exits_2_with_one_line(self, tmp_path, capsys, command, payload, message):
        path = write_problem(tmp_path, payload)
        assert main([command, "--problem", path]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1


OUTPUT_PAYLOADS = {"derive": lagrangian_payload(), "integrate": lagrangian_payload(),
                   "check": {"name": "sample", "kind": "metric", "n": 1}}


class TestUnwritableOutput:
    """An output directory, report or CSV that cannot be written exits 2 with one line."""

    @pytest.mark.parametrize("command", list(OUTPUT_PAYLOADS))
    @pytest.mark.parametrize("under,reason", [((), "File exists"), (("sub",), "Not a directory")],
                             ids=["file", "under-file"])
    def test_out_naming_a_file(self, tmp_path, capsys, command, under, reason):
        path = write_problem(tmp_path, OUTPUT_PAYLOADS[command])
        blocker = os.path.join(tmp_path, "blocker")
        with open(blocker, "w") as handle:
            handle.write("kept\n")
        out = os.path.join(blocker, *under)
        assert main([command, "--problem", path, "--out", out]) == EXIT_PARSE
        assert capsys.readouterr() == ("", f"error: cannot write {out}: {reason}\n")
        with open(blocker) as handle:
            assert handle.read() == "kept\n"

    @pytest.mark.parametrize("command,name", [
        ("derive", "sample-derive.json"), ("check", "sample-check.json"),
        ("integrate", "sample-trajectory.csv"), ("integrate", "sample-integrate.json")])
    def test_output_file_that_is_a_directory(self, tmp_path, capsys, command, name):
        path = write_problem(tmp_path, OUTPUT_PAYLOADS[command])
        out = os.path.join(tmp_path, "out")
        os.makedirs(os.path.join(out, name))
        assert main([command, "--problem", path, "--out", out]) == EXIT_PARSE
        target = os.path.join(out, name)
        assert capsys.readouterr() == ("", f"error: cannot write {target}: Is a directory\n")
        assert not [f for f in os.listdir(out) if f.startswith(".tmp-")]


def nested_hamiltonian(opening, depth):
    inner = opening * depth + "x1" + ")" * depth
    return {"name": "nested", "kind": "hamiltonian", "n": 1,
            "hamiltonian": f"0.5*y1^2 + {inner}", "initial_state": [0.1, 0.2],
            "integrator": {"scheme": "rk4", "t0": 0.0, "t1": 0.1, "h": 0.01}}


class TestLargeExpressions:
    """Long and deeply nested sources exit 0, 2 or 5, never with a traceback."""

    @pytest.mark.parametrize("command", ["derive", "integrate"])
    def test_long_flat_sum(self, tmp_path, capsys, command):
        terms = " + ".join(f"{k}*x1^{k % 5}*y1" for k in range(1, 3001))
        path = write_problem(tmp_path, lagrangian_payload(lagrangian=f"0.5*y1^2 + {terms}"))
        assert main([command, "--problem", path, "--out", str(tmp_path)]) == EXIT_OK

    @pytest.mark.parametrize("command", ["derive", "integrate"])
    @pytest.mark.parametrize("opening", ["(", "sin(", "x1 - (", "x1*(y1 + "])
    @pytest.mark.parametrize("depth", [100, MAX_NESTING])
    def test_nesting_within_the_bound(self, tmp_path, capsys, command, opening, depth):
        # "(" adds no tree level, "sin(" one, the other two two per opening
        path = write_problem(tmp_path, nested_hamiltonian(opening, depth))
        assert main([command, "--problem", path, "--out", str(tmp_path)]) == EXIT_OK

    @pytest.mark.parametrize("command", ["derive", "integrate"])
    @pytest.mark.parametrize("opening", ["exp(x1*", "x1^2*(", "(x1 + y1)*(", "y1 - x1*(",
                                         "x1*y1 - (1 + x1)*(", "-(", "x1/(1 + "])
    @pytest.mark.parametrize("depth", [100, MAX_NESTING])
    def test_nesting_never_ends_in_a_traceback(self, tmp_path, capsys, command, opening,
                                               depth):
        path = write_problem(tmp_path, nested_hamiltonian(opening, depth))
        # (1 + x1)^100 overflows in the first RK4 step of x1*y1 - (1 + x1)*( at
        # depth 100, a genuine overflow that integrate reports with exit 5
        code = main([command, "--problem", path, "--out", str(tmp_path)])
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_NUMERIC)
        if code != EXIT_OK:
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["derive", "integrate"])
    def test_derivatives_too_deep_exit_2(self, tmp_path, capsys, command):
        # three tree levels per opening, in the parse and in the derivative:
        # the parse is within the bound, simplifying the gradient is not
        path = write_problem(tmp_path, nested_hamiltonian("y1 - x1*(", MAX_NESTING))
        assert main([command, "--problem", path]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == "error: expression nests too deeply for its derivatives to be processed\n"

    @pytest.mark.parametrize("command", ["derive", "integrate"])
    @pytest.mark.parametrize("opening", ["(", "sin("])
    def test_nesting_beyond_the_bound(self, tmp_path, capsys, command, opening):
        path = write_problem(tmp_path, nested_hamiltonian(opening, 180))
        assert main([command, "--problem", path]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"nests deeper than {MAX_NESTING} levels" in err


class TestDeriveCommand:
    def test_lagrangian_text_lines(self, tmp_path, capsys):
        path = write_problem(tmp_path, lagrangian_payload())
        assert main(["derive", "--problem", path]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert "dx1/dt = -x1" in out
        assert "dy1/dt = y1" in out
        assert "E_L = -3*x1*y1" in out
        assert any(line.startswith("Phi_L = 2") for line in out)

    def test_hamiltonian_text_lines(self, tmp_path, capsys):
        payload = {
            "name": "osc", "kind": "hamiltonian", "n": 1,
            "hamiltonian": "0.5*(x1^2 + y1^2)",
        }
        path = write_problem(tmp_path, payload)
        assert main(["derive", "--problem", path]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert "dx1/dt = y1" in out
        assert "dy1/dt = -x1" in out

    def test_residual_overflow_names_residual_and_point(self, tmp_path, capsys):
        terms = " + ".join(f"{k}*x1^{k}*y1" for k in range(1, 3001))
        payload = {"name": "steep", "kind": "hamiltonian", "n": 1, "hamiltonian": terms}
        path = write_problem(tmp_path, payload)
        assert main(["derive", "--problem", path]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("error: i_Z Phi - dH residual x1: overflow")
        assert err.endswith(" at sample point x1 = 1.37768741, y1 = 1.03181761\n")

    @pytest.mark.parametrize("n,where", [
        (1, "x1 = 0.567322438, y1 = 1.22188527"),
        (3, "x1 = 0.567322438, x2 = 1.22188527, x3 = -0.931713535, "
            "y1 = 0.50773832, y2 = 1.68246183, y3 = -1.63810632"),
    ])
    def test_rank_probe_names_entry_and_point(self, tmp_path, capsys, n, where):
        # the symbolic (2n <= 4) and the numeric semispray share one probe
        source = " + ".join(f"x{i}*y{i}" for i in range(1, n + 1)) \
            + " + 1e308*exp(1e3*x1^2)*y1^2"
        payload = lagrangian_payload(n=n, lagrangian=source, initial_state=[0.1] * (2 * n))
        path = write_problem(tmp_path, payload)
        assert main(["derive", "--problem", path]) == EXIT_NUMERIC
        assert capsys.readouterr().err == \
            f"error: d2L/dx1dx1: non-finite value nan at probe point {where}\n"

    def test_json_format_has_required_keys(self, tmp_path, capsys):
        path = write_problem(tmp_path, lagrangian_payload())
        assert main(["derive", "--problem", path, "--format", "json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert set(report) >= {"odes", "residuals", "energy"}
        assert report["odes"] == {"x1": "-x1", "y1": "y1"}
        assert report["energy"] == "-3*x1*y1"

    def test_degenerate_quadratic_flagged_not_failed(self, tmp_path, capsys):
        payload = lagrangian_payload(lagrangian="0.5*(x1^2 + y1^2)")
        path = write_problem(tmp_path, payload)
        assert main(["derive", "--problem", path, "--format", "json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["kahler_form_zero"] is True
        assert report["odes"] == {"x1": "x1", "y1": "-y1"}

    def test_separable_lagrangian_phi_is_zero(self, tmp_path, capsys):
        # no mixed x-y term, so Phi_L vanishes although the Hessian is regular
        payload = lagrangian_payload(n=2, lagrangian="(x1*x2 + 1)^3 + y1^2 + y2^2",
                                     initial_state=[0.5, 0.5, 0.0, 0.0])
        path = write_problem(tmp_path, payload)
        assert main(["derive", "--problem", path, "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert "Phi_L = 0" in out
        assert "Phi_L degenerate: yes" in out
        with open(os.path.join(tmp_path, "sample-derive.json")) as handle:
            assert json.load(handle)["kahler_form_zero"] is True

    def test_parse_error_exit_code(self, tmp_path, capsys):
        payload = lagrangian_payload(lagrangian="x1*z9")
        path = write_problem(tmp_path, payload)
        assert main(["derive", "--problem", path]) == EXIT_PARSE
        assert "z9" in capsys.readouterr().err

    def test_degenerate_lagrangian_exit_code(self, tmp_path, capsys):
        payload = lagrangian_payload(lagrangian="x1")
        path = write_problem(tmp_path, payload)
        assert main(["derive", "--problem", path]) == EXIT_DEGENERATE
        assert "rank" in capsys.readouterr().err

    def test_malformed_json_exit_code(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "broken.json")
        with open(path, "w") as handle:
            handle.write("{not json")
        assert main(["derive", "--problem", path]) == EXIT_PARSE

    def test_velocity_constraint_reported(self, tmp_path, capsys):
        path = write_problem(tmp_path, lagrangian_payload())
        main(["derive", "--problem", path, "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert report["velocity_constraint"] == {"X1 equals y1": False}


class TestCheckCommand:
    def test_model_space_passes(self, tmp_path, capsys):
        payload = {"name": "model", "kind": "metric", "n": 2,
                   "metric": {"model": True}}
        path = write_problem(tmp_path, payload)
        assert main(["check", "--problem", path, "--format", "json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["all_identities_pass"] is True
        assert report["space_form"] == {"is_space_form": True, "c": 0.0}

    def test_potential_metric_not_space_form_still_ok(self, tmp_path, capsys):
        payload = {"name": "quartic", "kind": "metric", "n": 1,
                   "metric": {"potential": "x1*y1 + (x1*y1)^2"}}
        path = write_problem(tmp_path, payload)
        assert main(["check", "--problem", path, "--format", "json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["space_form"]["is_space_form"] is False
        assert report["all_identities_pass"] is True

    def test_curvature_evaluated_once_per_sample(self, monkeypatch, capsys):
        # symmetry_report and constant_c_test share R's values at the same points
        from parakahler import curvature
        from parakahler.cli import CHECK_TRIALS
        tensors, evaluated = [], []
        riemann, stack = curvature.riemann, curvature.CurvatureTensor.stack

        def recording(g):
            tensors.append(riemann(g))
            return tensors[-1]

        def counting(self, record):
            evaluated.extend([self] * len(record.points))
            return stack(self, record)

        monkeypatch.setattr(curvature, "riemann", recording)
        monkeypatch.setattr(curvature.CurvatureTensor, "stack", counting)
        assert main(["check", "--problem", os.path.join(PROBLEMS, "potential.json")]) == EXIT_OK
        assert sum(R is tensors[0] for R in evaluated) == CHECK_TRIALS

    def test_incompatible_metric_fails(self, tmp_path, capsys):
        payload = {"name": "euclid", "kind": "metric", "n": 1,
                   "metric": {"matrix": [["1", "0"], ["0", "1"]]}}
        path = write_problem(tmp_path, payload)
        assert main(["check", "--problem", path]) == EXIT_IDENTITY
        out = capsys.readouterr().out
        assert "FAIL compatibility" in out
        assert "first failing identity: compatibility" in out

    def test_tol_override_decides_compatibility(self, tmp_path, capsys):
        payload = {"name": "nearly", "kind": "metric", "n": 1,
                   "metric": {"matrix": [["1e-8", "1"], ["1", "0"]]}}
        path = write_problem(tmp_path, payload)
        assert main(["check", "--problem", path]) == EXIT_IDENTITY
        assert "FAIL compatibility" in capsys.readouterr().out
        code = main(["check", "--problem", path, "--tol", "1e-6", "--format", "json"])
        assert code == EXIT_OK
        compatibility = json.loads(capsys.readouterr().out)["identities"]["compatibility"]
        assert compatibility == {"violation": pytest.approx(2e-8), "pass": True, "tol": 1e-6}

    # seeds 7, 10 and 17 sample near the pole 1 + sum x_i y_i = 0, where |R|
    # and its rounding are large: the identities are decided relative to |R|
    @pytest.mark.parametrize("name,seed", [
        *(("space_form.json", seed) for seed in range(20)),
        *(("space_form_n3.json", seed) for seed in (0, 7, 17)),
        *(("space_form_matrix.json", seed) for seed in (0, 7, 17)),
    ])
    def test_paper_space_form(self, capsys, name, seed):
        problem = os.path.join(PROBLEMS, name)
        assert main(["check", "--problem", problem, "--seed", str(seed)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[:-1]] == ["PASS"] * 6
        assert lines[-1] == "space form: c = -2"

    def test_one_connection_per_check(self, capsys, monkeypatch):
        # nabla_J and riemann share christoffel(g): one probe, one compile of dg
        from functools import cached_property

        from parakahler import curvature
        calls = []
        probe, compile_dg = curvature._check_invertible, curvature.ChristoffelSymbols._compiled.func

        def counting_probe(g):
            calls.append("probe")
            probe(g)

        def counting_compile(self):
            calls.append("compile")
            return compile_dg(self)

        compiled = cached_property(counting_compile)
        compiled.__set_name__(curvature.ChristoffelSymbols, "_compiled")
        monkeypatch.setattr(curvature, "_check_invertible", counting_probe)
        monkeypatch.setattr(curvature.ChristoffelSymbols, "_compiled", compiled)
        problem = os.path.join(PROBLEMS, "space_form.json")
        assert main(["check", "--problem", problem]) == EXIT_OK
        assert calls == ["probe", "compile"]

    # numpy's overflow warnings would print lines of their own: here they are errors
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("potential,message", [
        ("exp(400*x1*y1)",
         "g_12: overflow: math range error at point x1 = 1.63898502, y1 = 1.9311419"),
        ("x1*y1 + 1e-300*exp(700*x1)*y1^2",
         "g_12: overflow: math range error at point x1 = 1.37768741, y1 = 1.03181761"),
        ("x1*y1 + 1e160*(x1*y1)^2",
         "R0_1212: non-finite value -inf at point x1 = 1.37768741, y1 = 1.03181761"),
        ("x1*y1 + 1e300*(x1*y1)^3",
         "R0_1212: non-finite value -inf at point x1 = 1.37768741, y1 = 1.03181761"),
    ], ids=["g-exp400", "g-exp700", "r0", "r0-det-overflow"])
    def test_numeric_failure_names_entry_and_point(self, tmp_path, capsys, potential, message):
        path = write_problem(tmp_path, {"kind": "metric", "n": 1,
                                        "metric": {"potential": potential}})
        assert main(["check", "--problem", path]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("flags,message", [
        (["--tol", "nan"], "tol must be a finite positive number, got nan"),
        (["--tol", "inf"], "tol must be a finite positive number, got inf"),
        (["--tol", "-1"], "tol must be a finite positive number, got -1.0"),
        (["--tol", "0"], "tol must be a finite positive number, got 0.0"),
        (["--seed", "-3"], "seed must be a non-negative integer"),
    ], ids=["tol-nan", "tol-inf", "tol-negative", "tol-zero", "seed-negative"])
    def test_bad_flag_exits_2_with_one_line(self, capsys, flags, message):
        problem = os.path.join(PROBLEMS, "potential.json")
        assert main(["check", "--problem", problem, *flags]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_check_requires_metric_kind(self, tmp_path, capsys):
        path = write_problem(tmp_path, lagrangian_payload())
        assert main(["check", "--problem", path]) == EXIT_PARSE


class TestIntegrateCommand:
    def test_lagrangian_trajectory_and_report(self, tmp_path, capsys):
        path = write_problem(tmp_path, lagrangian_payload())
        out_dir = os.path.join(tmp_path, "out")
        code = main(["integrate", "--problem", path, "--out", out_dir,
                     "--format", "json"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["trajectory_csv"] == "sample-trajectory.csv"
        assert os.path.exists(os.path.join(out_dir, "sample-trajectory.csv"))
        assert os.path.exists(os.path.join(out_dir, "sample-integrate.json"))
        assert report["conservation"]["max_relative_drift"] < 1e-8
        assert report["exponential_law"] is not None

    def test_hamiltonian_symplectic_euler(self, tmp_path, capsys):
        payload = {
            "name": "osc", "kind": "hamiltonian", "n": 1,
            "hamiltonian": "0.5*(x1^2 + y1^2)",
            "initial_state": [1.0, 0.0],
            "integrator": {"scheme": "symplectic-euler",
                           "t0": 0.0, "t1": 10.0, "h": 0.01},
        }
        path = write_problem(tmp_path, payload)
        out_dir = os.path.join(tmp_path, "out")
        code = main(["integrate", "--problem", path, "--out", out_dir,
                     "--format", "json"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["conservation"]["max_relative_drift"] < 5e-3

    @pytest.mark.parametrize("y0", [3e4, 1e5, 1e6])
    def test_symplectic_euler_at_large_momentum(self, tmp_path, capsys, y0):
        # H_x = x1 does not involve y1, so each step is the linear map
        # y' = y - h*x, x' = x + h*y'.  Its matrix power agrees with the steps
        # to 4e-15 relative; the bound is 1e-12.
        h, steps = 0.01, 100
        payload = {
            "name": "fast", "kind": "hamiltonian", "n": 1,
            "hamiltonian": "0.5*(x1^2 + y1^2)",
            "initial_state": [1.0, y0],
            "integrator": {"scheme": "symplectic-euler", "t0": 0.0, "t1": steps * h, "h": h},
        }
        path = write_problem(tmp_path, payload)
        assert main(["integrate", "--problem", path, "--out", str(tmp_path)]) == EXIT_OK
        rows = np.loadtxt(os.path.join(tmp_path, "fast-trajectory.csv"), delimiter=",",
                          skiprows=1)[:, 1:]
        linear_map = np.array([[1.0 - h * h, h], [-h, 1.0]])
        expected = [np.linalg.matrix_power(linear_map, k) @ [1.0, y0] for k in range(steps + 1)]
        assert np.max(np.abs(rows - expected)) <= 1e-12 * y0

    def test_numeric_blowup_exit_code(self, tmp_path, capsys):
        payload = {
            "name": "blowup", "kind": "hamiltonian", "n": 1,
            "hamiltonian": "x1^2*y1",
            "initial_state": [1.0, 1.0],
            "integrator": {"scheme": "rk4", "t0": 0.0, "t1": 2.0, "h": 0.01},
        }
        path = write_problem(tmp_path, payload)
        assert main(["integrate", "--problem", path,
                     "--out", str(tmp_path)]) == EXIT_NUMERIC
        assert "step" in capsys.readouterr().err

    def test_energy_check_with_no_defined_point_exits_5(self, tmp_path, capsys):
        # the power 2.5 is defined only where the quintic is within 1e-3
        # of 0, so the E_L conservation check draws no defined point
        poly = ("(x1-0.5673224384868281)*(x1+0.9317135345691687)*(x1-1.682461827800748)"
                "*(x1-0.33975329763079065)*(x1-0.5428224523212495)")
        payload = {"name": "sliver", "kind": "lagrangian", "n": 1,
                   "lagrangian": f"x1*y1 + (1e-6 - ({poly})^2)^2.5",
                   "initial_state": [0.5673224384868281, 0.1],
                   "integrator": {"scheme": "rk4", "t0": 0.0, "t1": 0.01, "h": 0.01}}
        path = write_problem(tmp_path, payload)
        assert main(["integrate", "--problem", path, "--out", str(tmp_path)]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: E_L conservation check: no sample point where xi(E_L) "
                                "is defined after 10 resamples\n")

    @pytest.mark.parametrize("scheme,where", [
        ("rk4", "step 4, from t = 0.03 at x1 = 0.00982390791, y1 = -3.01019662: dy1/dt: "),
        ("symplectic-euler", "step 5, from t = 0.04 at x1 = -0.0203834642, "
                             "y1 = -3.01318666: dH/dx1: "),
    ])
    def test_domain_error_in_step_names_it(self, tmp_path, capsys, scheme, where):
        payload = {
            "name": "cusp", "kind": "hamiltonian", "n": 1,
            "hamiltonian": "x1^1.5 + 0.5*y1^2",
            "initial_state": [0.1, -3.0],
            "integrator": {"scheme": scheme, "t0": 0.0, "t1": 1.0, "h": 0.01},
        }
        path = write_problem(tmp_path, payload)
        assert main(["integrate", "--problem", path,
                     "--out", str(tmp_path)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert where + "non-integer exponent 0.5 is undefined at base -" in err

    @pytest.mark.parametrize("hamiltonian,scheme,h,state0,message", [
        ("x1*y1^2", "symplectic-euler", 0.5, [1.0, -1.0],
         "singular Newton system in step 1, from t = 0 at x1 = 1, y1 = -1"),
        ("1e308*y1", "rk4", 0.25, [0.5, 2.0],
         "non-finite state in step 1, from t = 0 at x1 = 0.5, y1 = 2"),
    ], ids=["singular-newton", "overflow"])
    def test_step_failure_names_t_and_state(self, tmp_path, capsys, hamiltonian, scheme,
                                            h, state0, message):
        payload = {
            "name": "fails", "kind": "hamiltonian", "n": 1,
            "hamiltonian": hamiltonian,
            "initial_state": state0,
            "integrator": {"scheme": scheme, "t0": 0.0, "t1": 1.0, "h": h},
        }
        path = write_problem(tmp_path, payload)
        assert main(["integrate", "--problem", path,
                     "--out", str(tmp_path)]) == EXIT_NUMERIC
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_singular_hessian_in_step_names_it(self, tmp_path, capsys):
        # n = 3 solves the Hessian system per point; its (x1, y1) block
        # [[y1, x1], [x1, 0]] is singular on x1 = 0, where the flow starts,
        # while the probe points of the derivation find it regular
        payload = {
            "name": "singular", "kind": "lagrangian", "n": 3,
            "lagrangian": "0.5*x1^2*y1 + x2*y2 + x3*y3",
            "initial_state": [0, 0.1, 0.2, 0.3, 0.4, 0.5],
            "integrator": {"scheme": "rk4", "t0": 0.0, "t1": 1.0, "h": 0.01},
        }
        path = write_problem(tmp_path, payload)
        assert main(["derive", "--problem", path]) == EXIT_OK
        assert "Phi_L degenerate: no" in capsys.readouterr().out
        assert main(["integrate", "--problem", path,
                     "--out", str(tmp_path)]) == EXIT_DEGENERATE
        assert capsys.readouterr().err == (
            "error: degenerate Lagrangian: Hessian rank 5 of 6 reached in step 1, from t = 0 "
            "at x1 = 0, x2 = 0.1, x3 = 0.2, y1 = 0.3, y2 = 0.4, y3 = 0.5\n")

    def test_non_finite_conserved_quantity_names_step(self, tmp_path, capsys):
        payload = {
            "name": "pole", "kind": "hamiltonian", "n": 1,
            "hamiltonian": "ln(x1) + 0.5*y1^2",
            "initial_state": [0.5, -3.0],
            "integrator": {"scheme": "rk4", "t0": 0.0, "t1": 1.0, "h": 0.01},
        }
        path = write_problem(tmp_path, payload)
        assert main(["integrate", "--problem", path,
                     "--out", str(tmp_path)]) == EXIT_NUMERIC
        assert ("ln(x1) + 0.5*y1^2 is not finite at step 16 (t = 0.16, x1 = -0.0301347593"
                in capsys.readouterr().err)

    def test_symplectic_euler_demands_hamiltonian(self, tmp_path, capsys):
        payload = lagrangian_payload()
        payload["integrator"]["scheme"] = "symplectic-euler"
        path = write_problem(tmp_path, payload)
        assert main(["integrate", "--problem", path]) == EXIT_PARSE

    def test_missing_initial_state(self, tmp_path, capsys):
        payload = lagrangian_payload()
        del payload["initial_state"]
        path = write_problem(tmp_path, payload)
        assert main(["integrate", "--problem", path]) == EXIT_PARSE


class TestDeterminism:
    def test_derive_report_bytes_stable(self, tmp_path):
        path = write_problem(tmp_path, lagrangian_payload())
        outputs = []
        for run in ("a", "b"):
            out_dir = os.path.join(tmp_path, run)
            assert main(["derive", "--problem", path, "--out", out_dir]) == EXIT_OK
            with open(os.path.join(out_dir, "sample-derive.json"), "rb") as handle:
                outputs.append(handle.read())
        assert outputs[0] == outputs[1]

    def test_integrate_csv_bytes_stable(self, tmp_path):
        path = write_problem(tmp_path, lagrangian_payload())
        outputs = []
        for run in ("a", "b"):
            out_dir = os.path.join(tmp_path, run)
            assert main(["integrate", "--problem", path,
                         "--out", out_dir]) == EXIT_OK
            with open(os.path.join(out_dir, "sample-trajectory.csv"), "rb") as handle:
                outputs.append(handle.read())
        assert outputs[0] == outputs[1]

    def test_seed_override_recorded(self, tmp_path, capsys):
        path = write_problem(tmp_path, lagrangian_payload())
        main(["derive", "--problem", path, "--seed", "42", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 42


COMMANDS = {"lagrangian": ("derive", "integrate"), "hamiltonian": ("derive", "integrate"),
            "metric": ("check",)}
BUNDLED = [(name, command) for name in sorted(os.listdir(PROBLEMS)) if name.endswith(".json")
           for command in COMMANDS[load_problem(os.path.join(PROBLEMS, name)).kind]]


class TestBundledProblems:
    @pytest.mark.parametrize("name,command", BUNDLED)
    def test_bundled_problem_runs_clean(self, name, command, tmp_path, capsys):
        problem = os.path.join(PROBLEMS, name)
        args = [command, "--problem", problem]
        if command == "integrate":
            args += ["--out", str(tmp_path)]
        assert main(args) == EXIT_OK
        capsys.readouterr()
