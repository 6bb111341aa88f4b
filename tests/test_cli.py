from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import foliations
from foliations.cli import main
from foliations.corpus import fixtures_dir


def run_cli(*argv) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def fixture(name: str) -> str:
    return str(fixtures_dir() / name)


def _fresh_python(*args) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a new interpreter with this checkout on the path."""
    src = Path(foliations.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, check=False)


# ---------------------------------------------------------------------------
# Minimal JSON-schema validation (subset: type/properties/required/items/
# enum/anyOf, and $id as a label), enough for the shipped schema files;
# test_schemas_use_only_validated_keywords keeps them inside that subset.
# ---------------------------------------------------------------------------

_KEYWORDS = {"type", "properties", "required", "items", "enum", "anyOf", "$id"}

_TYPES = {
    "object": dict, "array": list, "string": str, "boolean": bool,
    "null": type(None), "number": (int, float), "integer": int,
}


def validate(schema: dict, value, path="$"):
    if "enum" in schema:
        assert value in schema["enum"], f"{path}: {value!r} not in enum"
    if "anyOf" in schema:
        errors = []
        for option in schema["anyOf"]:
            try:
                validate(option, value, path)
                break
            except AssertionError as exc:
                errors.append(str(exc))
        else:
            raise AssertionError(f"{path}: no anyOf branch matched ({errors})")
    if "type" in schema:
        kinds = schema["type"]
        if isinstance(kinds, str):
            kinds = [kinds]
        ok = False
        for kind in kinds:
            expected = _TYPES[kind]
            if isinstance(value, expected):
                if kind == "integer" and isinstance(value, bool):
                    continue
                if kind == "number" and isinstance(value, bool):
                    continue
                ok = True
        assert ok, f"{path}: {type(value).__name__} is not {kinds}"
    if isinstance(value, dict):
        for key in schema.get("required", []):
            assert key in value, f"{path}: missing key {key!r}"
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                validate(sub, value[key], f"{path}.{key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(schema["items"], item, f"{path}[{i}]")


SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load_schema(name: str) -> dict:
    return json.loads((SCHEMAS / name).read_text(encoding="utf-8"))


def _unvalidated_keywords(schema, path="$") -> list[str]:
    """Keywords of ``schema`` and its subschemas that ``validate`` ignores."""
    if not isinstance(schema, dict):
        return [f"{path}: not an object"]
    out = [f"{path}: {key}" for key in schema if key not in _KEYWORDS]
    for key, sub in schema.get("properties", {}).items():
        out += _unvalidated_keywords(sub, f"{path}.properties.{key}")
    if "items" in schema:
        out += _unvalidated_keywords(schema["items"], f"{path}.items")
    for i, sub in enumerate(schema.get("anyOf", [])):
        out += _unvalidated_keywords(sub, f"{path}.anyOf[{i}]")
    return out


def test_schemas_use_only_validated_keywords():
    paths = sorted(SCHEMAS.glob("*.json"))
    assert paths
    for path in paths:
        assert _unvalidated_keywords(load_schema(path.name)) == [], path.name


class TestSubcommands:
    def test_parse_round_trip(self):
        code, out = run_cli("parse", fixture("two_integrals.field"))
        assert code == 0
        assert "2*x*y, x^3 + 2*y^2, -2*y*z" in out

    def test_classify_json_schema(self):
        code, out = run_cli("classify", fixture("xabc111.field"))
        assert code == 0
        data = json.loads(out)
        assert data["class"] == "saddle_node" and data["rank"] == 1
        validate(load_schema("singularity_report.schema.json"), data)

    def test_resolve_dim2_json_schema(self):
        code, out = run_cli("resolve", fixture("cusp3.field"))
        assert code == 0
        data = json.loads(out)
        assert data["steps"] == 3
        validate(load_schema("resolution_tree.schema.json"), data)

    def test_resolve_dot(self):
        code, out = run_cli("resolve", fixture("cusp3.field"), "--dot")
        assert code == 0
        assert out.startswith("digraph resolution {")
        assert 'label="E1\\nweight -3"' in out

    def test_resolve_budget_exit_code(self):
        code, out = run_cli("resolve", fixture("sancho_sanz.field"),
                            "--standard-only", "--max-steps", "12")
        assert code == 1
        data = json.loads(out)
        assert data["status"] == "budget_exhausted"
        validate(load_schema("resolution_tree.schema.json"), data)

    def test_resolve_weighted_pipeline(self):
        code, out = run_cli("resolve", fixture("sancho_sanz.field"),
                            "--max-steps", "12")
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "resolved"
        assert data["weighted_steps"] == 1

    def test_resolve_one_variable_field(self, tmp_path):
        path = tmp_path / "line.field"
        path.write_text("vars: x\n2*x^2\n", encoding="utf-8")
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli("resolve", str(path))
        assert code == 1
        assert out == ""
        assert err.getvalue() == "error: resolution needs a field in two or three variables\n"

    def test_blowup(self):
        code, out = run_cli("blowup", fixture("radial2.field"))
        assert code == 0
        data = json.loads(out)
        assert all(entry["dicritical"] for entry in data)
        assert all(entry["divisor_multiplicity"] == 1 for entry in data)
        validate(load_schema("blowup_transform.schema.json"), data)

    def test_blowup_weighted_pole(self):
        code, out = run_cli("blowup", fixture("pole_example.field"),
                            "--center", "curve:z", "--weights", "2,1",
                            "--chart", "0")
        assert code == 0
        data = json.loads(out)
        assert data["pole_order"] == 1
        validate(load_schema("blowup_transform.schema.json"), data)

    def test_integrals_verify(self):
        code, out = run_cli("integrals", fixture("two_integrals.field"),
                            "--verify", "x*z",
                            "--verify", "(y^2 - x^3)*z^2",
                            "--independent", "x*z", "(y^2 - x^3)*z^2")
        assert code == 0
        data = json.loads(out)
        assert all(entry["first_integral"] for entry in data["verify"])
        assert data["independent"] is True
        validate(load_schema("integrals_report.schema.json"), data)

    def test_integrals_negative_exit(self):
        code, out = run_cli("integrals", fixture("radial2.field"),
                            "--verify", "x*y")
        assert code == 1

    def test_integrals_formal(self):
        code, out = run_cli("integrals", fixture("xabc111.field"),
                            "--formal", "--jet-degree", "4")
        assert code == 0
        data = json.loads(out)
        assert data["formal"]["dims_by_degree"] == [1, 2, 3, 4]

    def test_dynamics_holonomy(self):
        code, out = run_cli("dynamics", "holonomy", fixture("saddle13.field"),
                            "--base", "y", "--loop-radius", "0.1")
        assert code == 0
        data = json.loads(out)
        assert abs(data["argument_over_pi"] + 2.0 / 3.0) < 1e-4
        assert 0 <= data["error_estimate"] < 1e-4
        validate(load_schema("dynamics_outputs.schema.json"), data)

    def test_dynamics_holonomy_reports_error_estimate(self):
        # the cusp5 lift with the default radius and seed is far from
        # converged: its estimate is over half the ratio's size
        code, out = run_cli("dynamics", "holonomy", fixture("cusp5.field"))
        assert code == 0
        data = json.loads(out)
        assert abs(data["error_estimate"] - 0.55) < 0.01
        validate(load_schema("dynamics_outputs.schema.json"), data)

    @pytest.mark.parametrize("file_text, flags, message", [
        ("x, -3*y", ["--fiber-seed", "0", "--base", "x"], "fiber seed"),
        ("x^2", ["--base", "x"], "fiber variable"),
        ("x, -3*y", ["--loop-radius", "0"], "loop radius"),
    ])
    def test_dynamics_holonomy_degenerate_input(self, tmp_path, file_text, flags, message):
        names = "x, y" if "y" in file_text else "x"
        path = tmp_path / "field.field"
        path.write_text(f"vars: {names}\nkind: field\n{file_text}\n", encoding="utf-8")
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli("dynamics", "holonomy", str(path), *flags)
        assert code == 1
        assert out == ""
        assert err.getvalue().startswith("error: ") and message in err.getvalue()

    def test_dynamics_semicomplete(self, tmp_path):
        good = tmp_path / "quadratic.field"
        good.write_text("vars: x\nkind: field\nx^2\n", encoding="utf-8")
        code, out = run_cli("dynamics", "semicomplete", str(good))
        assert code == 0
        assert json.loads(out)["verdict"] == "semicomplete"
        bad = tmp_path / "cubic.field"
        bad.write_text("vars: x\nkind: field\nx^3\n", encoding="utf-8")
        code, out = run_cli("dynamics", "semicomplete", str(bad))
        assert code == 1
        assert json.loads(out)["verdict"] == "not_semicomplete"

    @pytest.mark.parametrize("expr", ["x^2 + 10*x^3", "x^3 + 10*x^4"])
    def test_dynamics_semicomplete_path_through_another_zero(self, tmp_path, expr):
        # the evidence circle or arc of the default radius 0.1 runs through
        # the zero -1/10: the verdict is printed, with null evidence
        path = tmp_path / "other_zero.field"
        path.write_text(f"vars: x\nkind: field\n{expr}\n", encoding="utf-8")
        code, out = run_cli("dynamics", "semicomplete", str(path))
        assert code == 1
        data = json.loads(out)
        assert data["verdict"] == "not_semicomplete"
        assert data["evidence_integral"] is None and data["evidence_radius"] is None
        validate(load_schema("dynamics_outputs.schema.json"), data)

    def test_dynamics_timeform(self, tmp_path):
        path = tmp_path / "cubic.field"
        path.write_text("vars: x\nkind: field\nx^3\n", encoding="utf-8")
        code, out = run_cli("dynamics", "timeform", str(path),
                            "--path", "half:0.1")
        assert code == 0
        data = json.loads(out)
        assert abs(complex(*data["integral"])) < 1e-9

    def test_dynamics_timeform_relative_tolerance_on_zero_integral(self, tmp_path,
                                                                   monkeypatch):
        # the loop integral of dx/x^2 is 0, so --tol-rel alone asks for an
        # error of about 0: only the rounding floor stops the bisection,
        # which otherwise runs toward 2^41 evaluations
        from foliations import dynamics

        quadrature = dynamics.adaptive_quadrature
        calls = []

        def counted_quadrature(f, *args):
            def counted(t):
                calls.append(t)
                if len(calls) > 10 ** 5:
                    raise AssertionError("bisection ran on below rounding")
                return f(t)
            return quadrature(counted, *args)

        monkeypatch.setattr(dynamics, "adaptive_quadrature", counted_quadrature)
        path = tmp_path / "square.field"
        path.write_text("vars: x\nkind: field\nx^2\n", encoding="utf-8")
        code, out = run_cli("dynamics", "timeform", str(path),
                            "--path", "circle:1", "--tol-abs", "0")
        assert code == 0
        data = json.loads(out)
        assert abs(complex(*data["integral"])) < 1e-12
        assert data["error_estimate"] < 1e-12

    def test_dynamics_descent_csv(self, tmp_path):
        path = tmp_path / "linear.field"
        path.write_text("vars: x\nkind: field\nx\n", encoding="utf-8")
        code, out = run_cli("dynamics", "descent", str(path),
                            "--theta", "0.0", "--start", "0.4,0.3",
                            "--t-max", "1.0", "--csv")
        assert code == 0
        assert out.splitlines()[0] == "t,re,im"

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.field"
        path.write_text("vars: x, y\nx + , y\n", encoding="utf-8")
        code, _ = run_cli("parse", str(path))
        assert code == 2

    def test_missing_file_exit_code(self):
        code, _ = run_cli("classify", "/nonexistent/nowhere.field")
        assert code == 2


class TestCorpusCommand:
    def test_full_run_passes(self):
        code, out = run_cli("corpus")
        assert code == 0
        data = json.loads(out)
        assert data["failures"] == 0
        assert data["total"] >= 20
        validate(load_schema("corpus_report.schema.json"), data)

    def test_filter(self):
        code, out = run_cli("corpus", "--filter", "jouanolou")
        assert code == 0
        data = json.loads(out)
        assert data["total"] == 3
        assert all("jouanolou" in c["name"] for c in data["checks"])

    def test_determinism_byte_identical(self):
        _, first = run_cli("corpus")
        _, second = run_cli("corpus")
        assert first == second

    def test_corrupted_fixture_reported_with_path(self, tmp_path):
        good = fixtures_dir()
        for path in good.glob("*.field"):
            (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"),
                                              encoding="utf-8")
        (tmp_path / "broken.field").write_text("vars: x, y\nx + , y\n",
                                               encoding="utf-8")
        code, out = run_cli("corpus", "--filter", "fixture_files",
                            "--fixtures", str(tmp_path))
        assert code == 1
        data = json.loads(out)
        failing = [c for c in data["checks"] if not c["passed"]]
        assert failing and "broken.field" in failing[0]["details"]


class TestFlagValidation:
    def test_bad_weights_usage_error(self):
        code, _ = run_cli("blowup", fixture("radial2.field"),
                          "--weights", "two,one")
        assert code == 2

    def test_bad_center_usage_error(self):
        code, _ = run_cli("blowup", fixture("radial2.field"),
                          "--center", "sphere")
        assert code == 2

    def test_nan_start_error(self, tmp_path):
        path = tmp_path / "square.field"
        path.write_text("vars: x\nkind: field\nx^2\n", encoding="utf-8")
        err = io.StringIO()
        with redirect_stderr(err):
            code, _ = run_cli("dynamics", "descent", str(path), "--start", "nan,0")
        assert code == 1
        assert err.getvalue().startswith("error: descent start must be finite")

    @pytest.mark.parametrize("field, radius", [
        ("x^3", "nan"), ("x^3", "inf"), ("x^3", "0"),
        ("x^2", "nan")])   # checked first, also where no integral is taken
    def test_semicomplete_degenerate_radius_error(self, tmp_path, field, radius):
        # a NaN radius used to reach the output as NaN, which is not JSON
        path = tmp_path / "power.field"
        path.write_text(f"vars: x\nkind: field\n{field}\n", encoding="utf-8")
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli("dynamics", "semicomplete", str(path),
                                "--loop-radius", radius)
        assert (code, out) == (1, "")
        assert err.getvalue() == ("error: loop radius must be finite and nonzero, "
                                  f"got {float(radius)!r}\n")

    @pytest.mark.parametrize("argv, message", [
        (["timeform", "--path", "circle:inf"], "path parameters must be finite, got 'circle:inf'"),
        (["timeform", "--path", "half:nan"], "path parameters must be finite, got 'half:nan'"),
        (["holonomy", "--tol-rel", "nan"], "integration relative tolerance must be finite, got nan"),
        (["descent", "--tol-rel", "nan"], "integration relative tolerance must be finite, got nan"),
        (["descent", "--t-max", "nan"], "integration end time must be finite, got nan"),
        (["descent", "--t-max", "inf"], "integration end time must be finite, got inf")])
    def test_nonfinite_dynamics_value_error(self, tmp_path, monkeypatch, argv, message):
        # each value is rejected before any quadrature or integration step
        from foliations import dynamics

        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature started")

        monkeypatch.setattr(dynamics, "adaptive_quadrature", no_quadrature)
        monkeypatch.setattr(dynamics, "_RK45_MAX_ITER", 0)
        operation, *flags = argv
        if operation == "holonomy":
            path = fixture("saddle12.field")
        else:
            path = tmp_path / "square.field"
            path.write_text("vars: x\nkind: field\nx^2\n", encoding="utf-8")
        err = io.StringIO()
        with redirect_stderr(err):
            code, _ = run_cli("dynamics", operation, str(path), *flags)
        assert code == 1
        assert err.getvalue() == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["timeform", "--tol-abs", "0", "--tol-rel", "0"],
         "quadrature tolerances must not both be zero"),
        (["descent", "--tol-abs", "0", "--tol-rel", "0"],
         "integration tolerances must not both be zero"),
        (["descent", "--tol-rel", "-1"],
         "integration relative tolerance must be nonnegative, got -1.0"),
        (["descent", "--t-max", "-1"], "descent t_max must be nonnegative, got -1.0")])
    def test_tolerance_or_t_max_without_error_control(self, tmp_path, monkeypatch,
                                                      argv, message):
        # the caps keep a run that is not rejected up front short: the
        # quadrature at depth 2 and the integration at 0 iterations
        from foliations import dynamics

        monkeypatch.setattr(dynamics, "_QUADRATURE_MAX_DEPTH", 2)
        monkeypatch.setattr(dynamics, "_RK45_MAX_ITER", 0)
        path = tmp_path / "square.field"
        path.write_text("vars: x\nkind: field\nx^2\n", encoding="utf-8")
        err = io.StringIO()
        with redirect_stderr(err):
            code, _ = run_cli("dynamics", argv[0], str(path), *argv[1:])
        assert code == 1
        assert err.getvalue() == f"error: {message}\n"

    def test_degree_limit_usage_error(self, tmp_path):
        path = tmp_path / "big.field"
        path.write_text("vars: x, y\nkind: field\nx^40, y\n", encoding="utf-8")
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli("parse", str(path))
        assert (code, out) == (2, "")
        assert err.getvalue() == ("parse error: exponent 40 exceeds the limit 32 "
                                  "(line 3, column 3)\n")

    def test_long_literal_usage_error(self, tmp_path):
        # longer than the interpreter converts to int: refused at the token
        path = tmp_path / "long.field"
        path.write_text("vars: x\nkind: field\n" + "1" * 5000 + "*x\n", encoding="utf-8")
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli("parse", str(path))
        assert (code, out) == (2, "")
        assert err.getvalue() == ("parse error: numeric literal of 5000 digits is too "
                                  "long (line 3, column 1)\n")

    @pytest.mark.parametrize("field, argv", [
        ("x^2", ["descent", "--start", "1e308,0"]),
        ("x^2", ["timeform", "--path", "circle:1e200"]),
        ("x^3, -y^2 + x*y", ["holonomy", "--base", "x", "--loop-radius", "1e200"]),
        ("x^3, -y^2 + x*y", ["holonomy", "--base", "x", "--fiber-seed", "1e200"]),
        ("x^2", ["timeform", "--path=arc:1e200:0.5:1.0"]),
        ("x^2", ["descent", "--start=1e200,1e200"])])
    def test_overflow_error(self, tmp_path, field, argv):
        # finite but huge inputs overflow the first complex evaluation: a
        # power of a real point raises, and a product or sum that gives inf
        # or NaN (the fiber seed, a power of a point off the real axis) is
        # caught by the finiteness check of the lift or of the integrand
        names = "x" if "y" not in field else "x, y"
        path = tmp_path / "huge.field"
        path.write_text(f"vars: {names}\nkind: field\n{field}\n", encoding="utf-8")
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli("dynamics", argv[0], str(path), *argv[1:])
        assert (code, out) == (1, "")
        assert err.getvalue() == ("error: floating-point overflow evaluating at a "
                                  "point too far from the origin\n")

    @pytest.mark.parametrize("command", ["classify", "resolve"])
    def test_huge_coefficient_certification_error(self, tmp_path, command):
        # the eigenvalues +-sqrt(2e400) are not in Q(i); certifying them
        # needs the coefficient -2e400 as a double
        path = tmp_path / "huge.field"
        path.write_text("vars: x, y\ny, 2" + "0" * 400 + "*x\n", encoding="utf-8")
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(command, str(path))
        assert (code, out) == (1, "")
        assert err.getvalue() == ("error: coefficient too large for a floating-point "
                                  "root certification\n")

    @pytest.mark.parametrize("argv", [["timeform", "--path", "circle:0.5"],
                                      ["descent", "--start", "0.5,0"]])
    def test_huge_coefficient_evaluation_error(self, tmp_path, argv):
        # the points are near the origin; the coefficient 2e400 is what
        # has no double
        path = tmp_path / "huge.field"
        path.write_text("vars: x\n2" + "0" * 400 + "*x^2\n", encoding="utf-8")
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli("dynamics", argv[0], str(path), *argv[1:])
        assert (code, out) == (1, "")
        assert err.getvalue() == ("error: coefficient too large for a floating-point "
                                  "evaluation\n")

    def test_jet_degree_limit_error(self, tmp_path):
        path = tmp_path / "square.field"
        path.write_text("vars: x\nkind: field\nx^2\n", encoding="utf-8")
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli("integrals", str(path), "--formal", "--jet-degree", "33")
        assert (code, out) == (1, "")
        assert err.getvalue() == "error: jet order must be at most 32\n"

    @pytest.mark.parametrize("bound", ["-1", "33"])
    def test_resonance_bound_limit_error(self, bound):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli("classify", fixture("siegel_triple.field"),
                                "--resonance-bound", bound)
        assert (code, out) == (1, "")
        assert err.getvalue() == ("error: resonance bound must lie between 0 and 32, "
                                  f"got {bound}\n")

    def test_resonance_bound_limit_is_inclusive(self, tmp_path):
        # spectrum (0, 1): the zero eigenvalue is resonant at every order
        path = tmp_path / "saddle_node.field"
        path.write_text("vars: x, y\nkind: field\nx, y^2\n", encoding="utf-8")
        code, out = run_cli("classify", str(path), "--resonance-bound", "32")
        assert code == 0
        assert {"index": 0, "exponents": [32, 0]} in json.loads(out)["resonant_relations"]

    def test_negative_probe_budget_error(self):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli("resolve", fixture("sancho_sanz.field"),
                                "--probe-budget", "-1")
        assert (code, out) == (1, "")
        assert err.getvalue() == "error: probe budget must be nonnegative, got -1\n"

    def test_bad_start_usage_error(self, tmp_path):
        path = tmp_path / "lin.field"
        path.write_text("vars: x\nkind: field\nx\n", encoding="utf-8")
        code, _ = run_cli("dynamics", "descent", str(path), "--start", "oops")
        assert code == 2


class TestParserReuse:
    """``main`` builds its parser once and reuses it for every call."""

    def test_repeated_verify_is_identical(self):
        argv = ("integrals", fixture("two_integrals.field"),
                "--verify", "x*z", "--verify", "(y^2 - x^3)*z^2")
        first, second = run_cli(*argv), run_cli(*argv)
        assert first == second
        assert len(json.loads(first[1])["verify"]) == 2

    def test_verify_does_not_leak_into_next_call(self):
        run_cli("integrals", fixture("two_integrals.field"), "--verify", "x*z")
        code, out = run_cli("integrals", fixture("xabc111.field"),
                            "--formal", "--jet-degree", "3")
        assert code == 0
        assert list(json.loads(out)) == ["formal"]

    def test_usage_error_then_valid_call_matches_fresh_process(self):
        argv = ["integrals", fixture("xabc111.field"), "--formal", "--jet-degree", "3"]
        with redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
            run_cli("integrals", fixture("xabc111.field"), "--jet-degree", "three")
        assert exc.value.code == 2
        code, out = run_cli(*argv)
        fresh = _fresh_python("-m", "foliations", *argv)
        assert (code, out) == (fresh.returncode, fresh.stdout)


# one CLI call in a new interpreter; prints its exit code and whether NumPy
# was loaded
_NUMPY_AFTER = """
import sys
from foliations.cli import main
code = main(sys.argv[1:])
print(code, "numpy" in sys.modules)
"""


class TestStartup:
    """The CLI loads a subcommand's modules, and NumPy, only when it runs."""

    def test_import_loads_the_parser_layer_only(self):
        done = _fresh_python("-c", "import json, sys, foliations.cli; "
                             "print(json.dumps(sorted(sys.modules)))")
        modules = set(json.loads(done.stdout))
        assert "numpy" not in modules
        assert not modules & {f"foliations.{m}" for m in (
            "resolve", "blowup", "classify", "intervals", "dynamics", "corpus")}

    # NumPy is loaded only to certify a root outside Q(i)
    @pytest.mark.parametrize("argv", [
        ["integrals", "two_integrals.field", "--formal"],
        ["parse", "two_integrals.field"],
        ["classify", "siegel_triple.field"],    # spectrum (1, 1+i, -2-i)
        ["dynamics", "holonomy", "saddle12.field", "--base", "x"],
        ["corpus"]])
    def test_commands_leave_numpy_unloaded(self, argv):
        done = _fresh_python("-c", _NUMPY_AFTER,
                             *(fixture(a) if a.endswith(".field") else a for a in argv))
        assert done.stderr == ""
        assert done.stdout.splitlines()[-1] == "0 False"

    def test_dynamics_from_a_cold_start(self):
        done = _fresh_python("-m", "foliations", "dynamics", "holonomy",
                             fixture("saddle12.field"), "--base", "x")
        assert (done.returncode, done.stderr) == (0, "")
        assert set(json.loads(done.stdout)) >= {"ratio", "argument_over_pi"}
