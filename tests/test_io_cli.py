"""Serialization round trips and the command-line surface."""

import csv
import importlib.util
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qmme import cli, dynamics, presets
from qmme.errors import ParseError, SchemaVersionMismatch
from qmme.fourier import FourierOperatorSeries
from qmme.io import (
    _format_float,
    _pairs,
    dumps_canonical,
    load_density_matrix,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    write_trajectory_csv,
)
from qmme.model import BathSpectrum, ReducedModel, p_series_from_profile_terms, validate_model
from qmme.presets import PRESETS, SIGMA_Z, preset

from conftest import random_density

REPO = Path(__file__).resolve().parent.parent
MODELS_DIR = REPO / "models"


def run_cli(*argv, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "qmme", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd or REPO,
    )


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = dumps_canonical({"zeta": 1.0, "alpha": 0.5, "n": 3})
        assert text.index('"alpha"') < text.index('"zeta"')
        assert '"alpha": 0.5' in text
        assert '"zeta": 1.0' in text
        assert '"n": 3' in text

    def test_seventeen_digit_floats_survive_round_trip(self):
        for x in (1.0 / 3.0, math.sqrt(2.0), 0.1 + 0.2, 1e-300, -7.25):
            text = dumps_canonical({"x": x})
            assert json.loads(text)["x"] == x

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ParseError):
                dumps_canonical({"x": bad})

    def test_deterministic(self):
        doc = {"b": [1.5, 2.5], "a": {"y": 0.1, "x": 0.2}}
        assert dumps_canonical(doc) == dumps_canonical(doc)


def _reference_write(obj, out, indent):
    # the streaming writer that dumps_canonical replaced, kept as the byte reference
    pad = "  " * indent
    if obj is None:
        out.write("null")
    elif obj is True:
        out.write("true")
    elif obj is False:
        out.write("false")
    elif isinstance(obj, str):
        out.write(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(_format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        keys = sorted(obj, key=str)
        for i, k in enumerate(keys):
            if not isinstance(k, str):
                raise ParseError(f"JSON object keys must be strings, got {k!r}")
            out.write(f'{pad}  {json.dumps(k)}: ')
            _reference_write(obj[k], out, indent + 1)
            out.write(",\n" if i + 1 < len(keys) else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        flat = all(isinstance(v, (int, float, np.integer, np.floating)) for v in obj)
        if not obj:
            out.write("[]")
        elif flat:
            out.write("[")
            for i, v in enumerate(obj):
                _reference_write(v, out, indent)
                if i + 1 < len(obj):
                    out.write(", ")
            out.write("]")
        else:
            out.write("[\n")
            for i, v in enumerate(obj):
                out.write(pad + "  ")
                _reference_write(v, out, indent + 1)
                out.write(",\n" if i + 1 < len(obj) else "\n")
            out.write(pad + "]")
    else:
        raise ParseError(f"cannot serialize object of type {type(obj).__name__}")


def _reference_dumps(obj):
    buf = io.StringIO()
    _reference_write(obj, buf, 0)
    return buf.getvalue() + "\n"


# integral floats on both sides of the 1e16 switch to exponent form, -0.0,
# subnormals and values that need all 17 digits
EDGE_FLOATS = [0.0, -0.0, 1.0, -3.0, 1e15, 9999999999999998.0, 1e16, -1e16, 1.5e16, 1e300,
               5e-324, 2.2250738585072014e-308 / 3, 0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0, 1e-7,
               123456789.12345679]
STRING_PARTS = ["a", "key", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", "é", "中", "\u2028", "\U0001f600"]


def _random_number(rnd):
    kind = rnd.randrange(7)
    if kind == 0:
        return rnd.choice(EDGE_FLOATS)
    if kind == 1:
        return rnd.uniform(-1.0, 1.0) * 10.0 ** rnd.randint(-320, 300)
    if kind == 2:
        return np.float64(rnd.choice(EDGE_FLOATS + [rnd.gauss(0.0, 1.0)]))
    if kind == 3:
        return rnd.choice([True, False])
    if kind == 4:
        return np.int64(rnd.randint(-2**63, 2**63 - 1))
    return rnd.choice([0, -1, 7, 2**70, -(10**20), rnd.randint(-1000, 1000)])


def _random_string(rnd):
    return "".join(rnd.choice(STRING_PARTS) for _ in range(rnd.randrange(4)))


def _random_document(rnd, depth=0):
    kind = rnd.randrange(7 if depth < 4 else 4)
    if kind == 0:
        return _random_number(rnd)
    if kind == 1:
        return rnd.choice([None, True, False, _random_string(rnd)])
    if kind == 2:  # a list of numbers, written on one line
        return [_random_number(rnd) for _ in range(rnd.randrange(5))]
    if kind == 3:
        return rnd.choice([{}, [], ()])
    if kind == 4:
        return {_random_string(rnd): _random_document(rnd, depth + 1) for _ in range(rnd.randrange(5))}
    items = [_random_number(rnd) if rnd.random() < 0.4 else _random_document(rnd, depth + 1)
             for _ in range(1 + rnd.randrange(4))]
    return tuple(items) if kind == 5 else items


class TestCanonicalWriterReference:
    """dumps_canonical against the streaming writer it replaced, byte for byte."""

    def test_seeded_random_documents(self):
        rnd = random.Random(20240611)
        for i in range(400):
            doc = {"doc": _random_document(rnd), _random_string(rnd): _random_document(rnd)}
            assert dumps_canonical(doc) == _reference_dumps(doc), i

    def test_top_level_values(self):
        for doc in (None, True, 1.0, -0.0, 3, np.int64(-4), "q\"", [], {}, (1, [2.0]), [[], {}], [1, True, np.float64(2.5)]):
            assert dumps_canonical(doc) == _reference_dumps(doc), doc

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_model_documents(self, name):
        doc = model_to_dict(preset(name))
        assert dumps_canonical(doc) == _reference_dumps(doc)

    @pytest.mark.parametrize("bad", [
        {1: 0.0}, {"a": {"b": {None: 1}}}, [1.0, float("nan")], {"x": [float("inf")]}, -math.inf,
        np.bool_(True), [np.bool_(False)], {"s": {1.0}}, [1j], {"z": complex(1.0, 2.0)},
    ])
    def test_unsupported_values_raise(self, bad):
        with pytest.raises(ParseError):
            _reference_dumps(bad)
        with pytest.raises(ParseError):
            dumps_canonical(bad)


class TestComplexPairs:
    @staticmethod
    def _per_entry(a):
        # the per-entry comprehensions _pairs replaced
        if a.ndim == 1:
            return [[float(z.real), float(z.imag)] for z in a]
        if a.ndim == 2:
            return [[[float(v.real), float(v.imag)] for v in row] for row in a]
        return [TestComplexPairs._per_entry(m) for m in a]

    @pytest.mark.parametrize("shape", [(5,), (3, 3), (4, 2, 2), (0,), (0, 2, 2)])
    def test_matches_per_entry_conversion(self, rng, shape):
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        if a.size:
            a.flat[0] = complex(-0.0, -0.0)
            a.flat[-1] = complex(0.0, -0.0)
        got, expect = _pairs(a), self._per_entry(a)
        # repr tells -0.0 from 0.0, and every float by its shortest round-trip digits
        assert repr(got) == repr(expect)
        assert json.dumps(got) == json.dumps(expect)

    def test_lists_of_matrices_and_real_input(self):
        mats = [np.eye(2), 1j * np.ones((2, 2))]
        assert _pairs(mats) == self._per_entry(np.array(mats, dtype=complex))
        assert repr(_pairs(np.array([-0.0, 2.0]))) == "[[-0.0, 0.0], [2.0, 0.0]]"


class TestModelRoundTrip:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_dict_round_trip(self, name):
        model = preset(name)
        doc = model_to_dict(model)
        clone = model_from_dict(json.loads(dumps_canonical(doc)))
        # canonical text is reproducible through the round trip
        assert dumps_canonical(model_to_dict(clone)) == dumps_canonical(doc)

    def test_file_round_trip(self, tmp_path):
        model = preset("qubit_driven")
        path = tmp_path / "m.json"
        save_model(model, path)
        clone = load_model(path)
        save_model(clone, tmp_path / "m2.json")
        assert (tmp_path / "m.json").read_bytes() == (tmp_path / "m2.json").read_bytes()

    def test_custom_bath_not_serializable(self):
        m = preset("qubit_dephasing")
        custom = ReducedModel(
            frequencies=m.frequencies,
            p_series=m.p_series,
            h_bar=m.h_bar,
            couplings=m.couplings,
            bath=BathSpectrum.from_callables(lambda w: np.eye(1) * 0.2, n_couplings=1),
        )
        with pytest.raises(ParseError):
            model_to_dict(custom)

    def test_shipped_models_match_presets(self, tmp_path):
        # numbers, not bytes: regeneration differs in the last digits
        # between machines and library builds
        presets.main([str(tmp_path)])
        shipped = sorted(p.name for p in MODELS_DIR.glob("*.json"))
        assert shipped == sorted(f"{name}.json" for name in PRESETS)
        for name in shipped:
            fresh = json.loads((tmp_path / name).read_text())
            committed = json.loads((MODELS_DIR / name).read_text())
            _assert_numbers_close(fresh, committed, name)

    def test_presets_reproduce_shipped_models_byte_for_byte(self, tmp_path):
        # the rule every simplification keeps: `python -m qmme.presets` regenerates models/
        presets.main([str(tmp_path)])
        for name in sorted(f"{name}.json" for name in PRESETS):
            assert (tmp_path / name).read_bytes() == (MODELS_DIR / name).read_bytes(), name

    def test_shipped_fixture_loads(self):
        model = load_model(MODELS_DIR / "qubit_dephasing.json")
        assert model.dim == 2
        assert model.frequencies.size == 2
        assert validate_model(model).passed


def _assert_numbers_close(a, b, where):
    if isinstance(a, dict):
        assert isinstance(b, dict) and sorted(a) == sorted(b), where
        for key in a:
            _assert_numbers_close(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_numbers_close(x, y, f"{where}[{i}]")
    elif isinstance(a, float) or isinstance(b, float):
        assert math.isclose(a, b, rel_tol=0.0, abs_tol=1e-12), (where, a, b)
    else:
        assert a == b, where


class TestGeneratorDocument:
    def test_expands_profile_terms(self):
        base = model_to_dict(preset("qubit_dephasing"))
        terms = [
            {
                "profile": "sin",
                "index": [1, 0],
                "amplitude": 0.3,
                "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
            }
        ]
        doc = {k: v for k, v in base.items() if k != "p_series"}
        doc["p_generator"] = {"trunc": 8, "terms": terms}
        model = model_from_dict(doc)
        direct = p_series_from_profile_terms(
            [dict(t, matrix=np.array(SIGMA_Z)) for t in terms], r=2, trunc=8
        )
        omega = model.frequencies
        for t in (0.0, 1.1, 4.7):
            assert np.allclose(
                model.p_series.evaluate(omega, t), direct.evaluate(omega, t), atol=1e-14
            )


class TestParseErrors:
    def doc(self):
        return model_to_dict(preset("qubit_dephasing"))

    def test_corrupt_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "qmme-model",\n  "version": oops\n}')
        with pytest.raises(ParseError) as exc:
            load_model(path)
        assert "line 2" in str(exc.value)
        assert "column" in str(exc.value)

    def test_wrong_schema_name(self):
        doc = self.doc()
        doc["schema"] = "other-thing"
        with pytest.raises(SchemaVersionMismatch):
            model_from_dict(doc)

    def test_wrong_version(self):
        doc = self.doc()
        doc["version"] = 99
        with pytest.raises(SchemaVersionMismatch):
            model_from_dict(doc)

    def test_missing_key_names_field(self):
        doc = self.doc()
        del doc["h_bar"]
        with pytest.raises(ParseError) as exc:
            model_from_dict(doc)
        assert "h_bar" in str(exc.value)

    def test_bad_matrix_shape_names_field(self):
        doc = self.doc()
        doc["couplings"][0] = [[1.0, 0.0], [0.0, 1.0]]  # not [re, im] pairs
        with pytest.raises(ParseError) as exc:
            model_from_dict(doc)
        assert "couplings[0]" in str(exc.value)

    def test_duplicate_coefficient_index(self):
        doc = self.doc()
        doc["p_series"]["coefficients"].append(doc["p_series"]["coefficients"][0])
        with pytest.raises(ParseError) as exc:
            model_from_dict(doc)
        assert "duplicate" in str(exc.value)

    def test_non_numeric_frequencies(self):
        doc = self.doc()
        doc["frequencies"] = ["a", "b"]
        with pytest.raises(ParseError):
            model_from_dict(doc)

    def test_missing_frame_section(self):
        doc = self.doc()
        del doc["p_series"]
        with pytest.raises(ParseError) as exc:
            model_from_dict(doc)
        assert "p_series" in str(exc.value) and "p_generator" in str(exc.value)

    def test_parse_validate_separation(self):
        # a structurally sound file with a non-Hermitian static part parses
        # fine; only validation flags it
        doc = self.doc()
        doc["h_bar"] = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        model = model_from_dict(doc)
        report = validate_model(model)
        assert not report.passed
        assert not report.hermiticity_ok


class TestDensityMatrixIO:
    def test_wrapped_and_bare(self, tmp_path):
        pairs = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"matrix": pairs}))
        b = tmp_path / "b.json"
        b.write_text(json.dumps(pairs))
        assert np.allclose(load_density_matrix(a), np.eye(2) / 2, atol=0)
        assert np.allclose(load_density_matrix(b), np.eye(2) / 2, atol=0)

    def test_corrupt(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("[[nope")
        with pytest.raises(ParseError):
            load_density_matrix(p)


class TestTrajectoryCsv:
    def test_header_and_rows(self):
        ts = np.array([0.0, 1.0])
        states = np.stack([np.eye(2, dtype=complex) / 2] * 2)
        buf = io.StringIO()
        write_trajectory_csv(buf, ts, states, extra={"dist": [0.0, 1e-9]})
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == [
            "t",
            "re_00", "im_00", "re_01", "im_01",
            "re_10", "im_10", "re_11", "im_11",
            "trace_re", "min_eig", "dist",
        ]
        assert len(rows) == 3
        assert float(rows[1][0]) == 0.0
        assert float(rows[1][9]) == 1.0  # trace
        assert float(rows[2][11]) == 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_row_by_row_writer(self, rng, d):
        def reference(out, ts, states, extra):
            # the writer formatted entry by entry, one eigvalsh per state
            entries = [f"{part}_{i}{j}" for i in range(d) for j in range(d) for part in ("re", "im")]
            out.write(",".join(["t", *entries, "trace_re", "min_eig", *extra]) + "\n")
            for k, t in enumerate(ts):
                rho = states[k]
                vals = [_format_float(t)]
                for i in range(d):
                    for j in range(d):
                        vals += [_format_float(rho[i, j].real), _format_float(rho[i, j].imag)]
                vals.append(_format_float(rho.trace().real))
                vals.append(_format_float(float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])))
                vals += [_format_float(float(extra[name][k])) for name in extra]
                out.write(",".join(vals) + "\n")

        ts = np.array([0.0, 0.5, 0.5, 3.0, 1e-300, 12.25])  # a repeated time
        states = np.stack([random_density(rng, d) for _ in ts])
        states[1] += 1e-3j * rng.normal(size=(d, d))  # not Hermitian
        extra = {"dist": rng.uniform(size=ts.size), "count": [1, 2, 3, 4, 5, 6],
                 "neg": -rng.uniform(size=ts.size)}
        got, expect = io.StringIO(), io.StringIO()
        write_trajectory_csv(got, ts, states, extra=extra)
        reference(expect, ts, states, extra)
        assert got.getvalue() == expect.getvalue()

    def test_shape_mismatches(self):
        ts = np.array([0.0, 1.0])
        states = np.stack([np.eye(2, dtype=complex)] * 2)
        with pytest.raises(ParseError):
            write_trajectory_csv(io.StringIO(), ts, states[:1])
        with pytest.raises(ParseError):
            write_trajectory_csv(io.StringIO(), ts, states, extra={"x": [1.0]})


class TestCliValidate:
    def test_fixture_passes(self):
        res = run_cli("validate", str(MODELS_DIR / "qubit_dephasing.json"))
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["passed"] is True

    def test_out_directory(self, tmp_path):
        res = run_cli(
            "validate", str(MODELS_DIR / "qubit_dephasing.json"), "--out", str(tmp_path)
        )
        assert res.returncode == 0
        written = tmp_path / "validate.json"
        assert written.exists()
        assert json.loads(written.read_text())["passed"] is True
        assert res.stdout.strip() == str(written)

    def test_dependent_frequencies_witnessed(self, tmp_path):
        doc = model_to_dict(preset("qubit_dephasing"))
        doc["frequencies"] = [1.0, 2.0]
        path = tmp_path / "dep.json"
        path.write_text(dumps_canonical(doc))
        res = run_cli("validate", str(path))
        assert res.returncode == 1
        payload = json.loads(res.stdout)
        assert payload["passed"] is False
        assert payload["rational_independence"]["witness"] == [2, -1]

    def test_congruence_violation_witnessed(self):
        res = run_cli("validate", str(MODELS_DIR / "qubit_congruence_violating.json"))
        assert res.returncode == 1
        payload = json.loads(res.stdout)
        assert payload["congruence_freedom"]["passed"] is False
        assert payload["congruence_freedom"]["witness"] is not None

    def test_huge_series_trunc_is_only_a_bound(self, tmp_path, capsys):
        # the same radius-10 support under trunc 10^9: same report, no box of 2e9 + 1 points per axis
        shipped = MODELS_DIR / "qubit_driven.json"
        doc = json.loads(shipped.read_text())
        doc["p_series"]["trunc"] = 10**9
        big = tmp_path / "model.json"
        big.write_text(json.dumps(doc))
        outs = []
        for path in (shipped, big):
            assert cli.main(["validate", str(path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_corrupt_file_is_usage_error(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{ this is not json")
        res = run_cli("validate", str(path))
        assert res.returncode == 2
        payload = json.loads(res.stdout)
        assert payload["error"]["type"] == "ParseError"

    def test_env_tolerance_override(self):
        # a congruence tolerance wide enough to swallow the real margin
        # flips the verdict without any flag
        res = run_cli(
            "validate",
            str(MODELS_DIR / "qubit_dephasing.json"),
            env_extra={"QMME_TOL_CONGRUENCE": "0.1"},
        )
        assert res.returncode == 1
        payload = json.loads(res.stdout)
        assert payload["congruence_freedom"]["passed"] is False


def _mutated(doc, edit):
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return json.dumps(doc)


def _generator_with_short_index(doc):
    term = {"profile": "sin", "index": [1], "amplitude": 0.3, "matrix": doc["h_bar"]}
    doc["p_generator"] = {"trunc": 4, "terms": [term]}
    del doc["p_series"]


def _generator_with_negative_trunc(doc):
    term = {"profile": "sin", "index": [1, 0], "amplitude": 0.3, "matrix": doc["h_bar"]}
    doc["p_generator"] = {"trunc": -1, "terms": [term]}
    del doc["p_series"]


MALFORMED = {
    "family-not-a-name": lambda d: d["bath"].update(family=["flat"]),
    "gamma-not-a-number": lambda d: d["bath"]["params"].update(gamma="abc"),
    "trunc-not-a-number": lambda d: d["p_series"].update(trunc="x"),
    "trunc-not-an-integer": lambda d: d["p_series"].update(trunc=1.5),
    "index-wrong-length": lambda d: d["p_series"]["coefficients"][0].update(n=[0]),
    "generator-index-wrong-length": _generator_with_short_index,
    "generator-trunc-negative": _generator_with_negative_trunc,
}


class TestCliMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED) + ["gamma-overflows"])
    def test_usage_error_without_traceback(self, case, tmp_path):
        doc = json.loads((MODELS_DIR / "qubit_dephasing.json").read_text())
        if case == "gamma-overflows":  # the JSON reader turns 1e400 into inf
            text = json.dumps(doc).replace('"gamma": 0.25', '"gamma": 1e400')
            assert "1e400" in text
        else:
            text = _mutated(doc, MALFORMED[case])
        path = tmp_path / "model.json"
        path.write_text(text)
        res = run_cli("build", str(path))
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        assert "message" in json.loads(res.stdout)["error"]

    def test_error_names_json_path(self):
        doc = model_to_dict(preset("qubit_dephasing"))
        doc["bath"]["params"]["gamma"] = "abc"
        with pytest.raises(ParseError, match=r"model\.bath\.params\.gamma"):
            model_from_dict(doc)
        doc = model_to_dict(preset("qubit_dephasing"))
        doc["p_series"]["coefficients"][0]["n"] = [0, True]
        with pytest.raises(ParseError, match=r"coefficients\[0\]\.n\[1\]"):
            model_from_dict(doc)

    def test_bad_coefficient_matrix_named(self):
        doc = model_to_dict(preset("qubit_driven"))
        doc["p_series"]["coefficients"][3]["matrix"][0][1] = [1e400, 0.0]
        with pytest.raises(ParseError, match=r"coefficients\[3\]: non-finite entry"):
            model_from_dict(doc)
        doc = model_to_dict(preset("qubit_driven"))
        doc["p_series"]["coefficients"][3]["matrix"] = [[[1.0, 0.0]]]
        with pytest.raises(ParseError, match=r"different shapes \[\(1, 1\), \(2, 2\)\]"):
            model_from_dict(doc)


def _run_in_process(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return code, json.loads(out)


class TestCliExitContract:
    """Bad inputs end in a contract exit code and a JSON error, run in-process."""

    @pytest.mark.parametrize("case, code, kind", [
        ("non-utf8-model", 2, "ParseError"),
        ("nan-grid", 2, "ParseError"),
        ("huge-grid", 2, "DimensionMismatch"),
        # a p_series tail below 0 would pass as a bound that no series meets
        ("negative-tail", 2, "DimensionMismatch"),
        # p's phase at t = 1e308 is not finite: refused before any cosine, exp(t X) or SVD
        ("phase-overflow-evolve", 3, "Overflow"),
        ("phase-overflow-steady-state", 3, "Overflow"),
        ("phase-overflow-certify", 3, "Overflow"),
        ("huge-box", 2, "DimensionMismatch"),
        ("box-zero", 2, "DimensionMismatch"),
        ("box-negative", 2, "DimensionMismatch"),
        # a NaN or negative tolerance would switch its check off, and a step-halving
        # bound that is not positive and finite could never be met or never be tested
        ("tol-nan", 2, "ParseError"),
        ("tol-negative", 2, "ParseError"),
        ("tol-integrate-zero", 2, "ParseError"),
        ("tol-integrate-inf", 2, "ParseError"),
        ("env-tol-nan", 2, "ParseError"),
        ("env-tol-integrate-negative", 2, "ParseError"),
        # a variable is read only by the subcommands that have its flag, and the flag wins
        ("env-tol-integrate-negative-validate", 0, None),
        ("env-tol-integrate-negative-flag-wins", 0, None),
        # numpy refuses a negative seed, and a negative pair count would certify no pair
        ("seed-negative", 2, "ParseError"),
        ("pairs-negative", 2, "ParseError"),
        # argparse's own usage errors
        ("box-not-a-number", 2, "ParseError"),
        ("model-missing", 2, "ParseError"),
        ("command-missing", 2, "ParseError"),
        ("grid-like-an-option", 2, "ParseError"),
    ])
    def test_exit_code_and_json(self, case, code, kind, tmp_path, capsys, monkeypatch):
        model = str(MODELS_DIR / "qubit_dephasing.json")
        violating = str(MODELS_DIR / "qubit_congruence_violating.json")
        table = {
            "tol-nan": ["validate", violating, "--tol-congruence", "nan"],
            "tol-negative": ["validate", violating, "--tol-congruence", "-1"],
            "tol-integrate-zero": ["evolve", model, "--tol-integrate", "0"],
            "tol-integrate-inf": ["evolve", model, "--tol-integrate", "inf"],
            "env-tol-nan": ["validate", violating],
            "env-tol-integrate-negative": ["evolve", model],
            "env-tol-integrate-negative-validate": ["validate", model],
            "env-tol-integrate-negative-flag-wins": ["evolve", model, "--grid", "0:1:3",
                                                     "--tol-integrate", "1e-8"],
            "seed-negative": ["certify", model, "--seed", "-1"],
            "pairs-negative": ["certify", model, "--pairs", "-3"],
            "box-not-a-number": ["validate", model, "--box", "x"],
            "model-missing": ["validate"],
            "command-missing": [],
            "grid-like-an-option": ["evolve", model, "--grid", "-1:1:3"],
        }
        env = {"env-tol-nan": ("QMME_TOL_CONGRUENCE", "nan")}
        for suffix in ("", "-validate", "-flag-wins"):
            env["env-tol-integrate-negative" + suffix] = ("QMME_TOL_INTEGRATE", "-1")
        if case in env:
            monkeypatch.setenv(*env[case])
        if case in table:
            argv = table[case]
        elif case == "non-utf8-model":
            bad = tmp_path / "model.json"
            bad.write_bytes(b'\xff\xfe{"schema": "qmme-model"}')
            argv = ["validate", str(bad)]
        elif case == "negative-tail":
            doc = json.loads((MODELS_DIR / "qubit_driven.json").read_text())
            doc["p_series"]["tail_norm"] = -1.0
            (tmp_path / "model.json").write_text(json.dumps(doc))
            argv = ["synthesize", str(tmp_path / "model.json")]
        elif case.startswith("phase-overflow-"):
            argv = [case[len("phase-overflow-"):], str(MODELS_DIR / "qubit_driven.json"), "--grid", "0:1e308:3"]
        elif case == "huge-box":
            argv = ["validate", model, "--box", "10000000"]  # 2e7 + 1 points even at r = 1
        elif case.startswith("box-"):  # an empty scan would pass any model
            argv = ["validate", model, "--box", "0" if case == "box-zero" else "-1"]
        else:
            argv = ["evolve", model, "--grid", "0:nan:3" if case == "nan-grid" else "0:1e308:3"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = cli.main(argv)
        out, err = capsys.readouterr()
        assert err == "" and not caught  # no traceback and no numpy warning
        assert got == code
        if code == 0:
            return
        payload = json.loads(out)
        assert set(payload["error"]) == {"type", "message"}
        assert payload["error"]["type"] == kind
        if case in env:  # the message names the variable
            assert env[case][0] in payload["error"]["message"]

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as stop:
            cli.main(["validate", "--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qmme validate")

    @pytest.mark.parametrize("under", [False, True])
    def test_unusable_out_is_usage_error(self, under, tmp_path, capsys):
        # --out names a directory: an existing file cannot become one, nor hold one
        taken = tmp_path / "taken.json"
        taken.write_text("{}")
        out_dir = taken / "sub" if under else taken
        got = cli.main(["validate", str(MODELS_DIR / "qubit_dephasing.json"), "--out", str(out_dir)])
        out, err = capsys.readouterr()
        assert err == "" and got == 2, out
        message = json.loads(out)["error"]
        assert message["type"] == "ParseError"
        assert "--out" in message["message"] and str(out_dir) in message["message"]
        assert taken.read_text() == "{}"

    @pytest.mark.parametrize("command", ["evolve", "steady-state", "certify"])
    def test_unallocatable_grid_is_usage_error(self, command, capsys):
        # numpy refuses the 711 PiB array (MemoryError) and the count past what it can
        # address (ValueError) before allocating anything
        model = str(MODELS_DIR / "qubit_dephasing.json")
        for count in ("100000000000000000", "10000000000000000000"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = cli.main([command, model, "--grid", f"0:1:{count}"])
            out, err = capsys.readouterr()
            assert err == "" and not caught
            assert got == 2, out
            message = json.loads(out)["error"]
            assert message["type"] == "ParseError"
            assert "--grid" in message["message"] and count in message["message"]

    def test_oversized_generator_grid_is_usage_error(self, tmp_path, capsys):
        # trunc is only a bound: at 3000 the Taylor terms of p keep the support they
        # reach, and validate passes; a term at index (400, 0) needs a product
        # workspace of radius 800, 1601^2 points, which is refused before allocating
        doc = {k: v for k, v in model_to_dict(preset("qubit_driven")).items() if k != "p_series"}
        sigma_z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
        path = tmp_path / "model.json"
        for second, code in (([0, 1], 0), ([400, 0], 2)):
            doc["p_generator"] = {"trunc": 3000, "terms": [
                {"profile": "sin", "index": index, "amplitude": amplitude, "matrix": sigma_z}
                for index, amplitude in (([1, 0], 0.3), (second, 0.2))]}
            path.write_text(json.dumps(doc))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = cli.main(["validate", str(path)])
            out, err = capsys.readouterr()
            assert err == "" and not caught
            assert got == code, out
            payload = json.loads(out)
            if code == 0:
                assert payload["passed"] is True
            else:
                assert payload["error"]["type"] == "DimensionMismatch"
                assert "2563201 points" in payload["error"]["message"]


# error types that may come with exit 1: a failed physics check
CONTRACT_TYPES = {"InadmissibleModel", "NotPSD", "NotHermitian", "NotUnitary", "SpectralViolation"}
ODD_VALUES = ["x", None, True, [], {}, 1.5, -3, [[1.0, 0.0]]]


def _random_mutation(doc, rnd):
    """Apply one seeded edit to a parsed model document; returns its description."""
    # schema and version have tests of their own; damage the model content
    parent, key = doc, rnd.choice(["frequencies", "h_bar", "couplings", "bath", "p_series"])
    node = doc[key]
    while isinstance(node, (dict, list)) and node and rnd.random() < 0.7:
        parent = node
        key = rnd.choice(sorted(node)) if isinstance(node, dict) else rnd.randrange(len(node))
        node = parent[key]
    kind = rnd.choice(["type", "delete", "shape", "non-finite"])
    if kind == "delete" and isinstance(parent, dict):
        del parent[key]
    elif kind == "shape" and isinstance(node, list) and node:
        if rnd.random() < 0.5:
            node.pop()
        else:
            node.append(json.loads(json.dumps(node[-1])))
    elif kind == "non-finite" and isinstance(node, (int, float)) and not isinstance(node, bool):
        parent[key] = rnd.choice([math.inf, -math.inf, math.nan])
    else:
        kind = "type"
        parent[key] = rnd.choice([v for v in ODD_VALUES if type(v) is not type(node)])
    return f"{kind} at {key!r}"


class TestCliSeededMutations:
    """Validate randomly damaged copies of the shipped models in-process: every
    run ends with a contract exit code and a JSON document, never a traceback."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_validate_keeps_exit_contract(self, name, tmp_path, capsys):
        rnd = random.Random(f"qmme-mutations-{name}")
        original = json.loads((MODELS_DIR / f"{name}.json").read_text())
        path = tmp_path / "model.json"
        for i in range(20):
            doc = json.loads(json.dumps(original))
            what = _random_mutation(doc, rnd)
            path.write_text(json.dumps(doc))
            code, payload = _run_in_process(["validate", str(path)], capsys)
            assert code in (0, 1, 2, 3), (i, what)
            if code == 1:
                assert ("passed" in payload and payload["passed"] is False) or (
                    "validation" in payload or payload["error"]["type"] in CONTRACT_TYPES
                ), (i, what, payload)


class TestCliBuild:
    def test_build_reports_structure(self):
        res = run_cli("build", str(MODELS_DIR / "qubit_dephasing.json"))
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["validation"]["passed"] is True
        assert sorted(payload["decomposition"]["bohr_frequencies"]) == pytest.approx(
            [-0.6, 0.0, 0.6]
        )
        assert payload["jump_operators"]
        assert payload["covariance"]["passed"] is True

    def test_build_refuses_violating_model(self):
        res = run_cli("build", str(MODELS_DIR / "qubit_congruence_violating.json"))
        assert res.returncode == 1
        payload = json.loads(res.stdout)
        assert payload["error"]["type"] == "InadmissibleModel"
        assert payload["validation"]["congruence_freedom"]["passed"] is False


class TestCliDynamics:
    def test_evolve_paths_agree(self):
        # qubit_driven's grid starts after t = 0: both paths count its times from rho0 at t = 0
        for name, grid, count in (("qubit_dephasing", "0:5:40", 40), ("qubit_driven", "5:10:6", 6)):
            res = run_cli("evolve", str(MODELS_DIR / f"{name}.json"), "--grid", grid, "--rho0", "plus")
            assert res.returncode == 0, res.stderr
            rows = list(csv.DictReader(io.StringIO(res.stdout)))
            assert len(rows) == count
            worst = max(float(r["dist"]) for r in rows)
            assert worst <= 1e-6
            assert {"re_00", "direct_re_00", "dist"} <= set(rows[0])

    def test_spectrum_frozen(self):
        res = run_cli("spectrum", str(MODELS_DIR / "qubit_dephasing.json"))
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["k0"] == 2
        assert payload["quasiperiodic_steady_state"] is True
        assert payload["decay_rate"] == pytest.approx(0.5, abs=1e-12)

    def test_steady_state_document(self):
        res = run_cli(
            "steady-state",
            str(MODELS_DIR / "qubit_dephasing.json"),
            "--grid", "0:40:200",
            "--rho0", "plus",
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["stability"]["k0"] == 2
        assert payload["limit_cycle"]["quasiperiodic"] is True
        assert payload["decay_fit"]["relative_error"] < 0.05

    @pytest.mark.parametrize("name", sorted(set(PRESETS) - {"qubit_congruence_violating"}))
    def test_steady_state_default_grid_fits(self, name):
        # the default initial state basis0 is stationary on the dephasing qubit
        extra = ["--rho0", "plus"] if name == "qubit_dephasing" else []
        res = run_cli("steady-state", str(MODELS_DIR / f"{name}.json"), *extra)
        assert res.returncode == 0, res.stderr
        fit = json.loads(res.stdout)["decay_fit"]
        assert "error" not in fit
        assert fit["relative_error"] < 0.05

    def test_certify_passes(self):
        res = run_cli(
            "certify",
            str(MODELS_DIR / "qubit_dephasing.json"),
            "--grid", "0.1:8:6",
            "--pairs", "5",
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["passed"] is True

    def test_deterministic_stdout(self):
        args = ("spectrum", str(MODELS_DIR / "qubit_dephasing.json"))
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

    def test_bad_grid_is_usage_error(self):
        res = run_cli(
            "evolve", str(MODELS_DIR / "qubit_dephasing.json"), "--grid", "5:0:10"
        )
        assert res.returncode == 2
        payload = json.loads(res.stdout)
        assert "error" in payload

    def test_synthesize_writes_series(self):
        res = run_cli("synthesize", str(MODELS_DIR / "qubit_driven.json"))
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["r"] == 2
        assert payload["coefficients"]

    def test_synthesize_overflow_is_numerical_failure(self, tmp_path):
        # H's coefficients stay finite (about 3e299) but their norms overflow, so its tail
        # is inf; the numerical failure exits 3 and is not left to the JSON writer (exit 2)
        doc = json.loads((MODELS_DIR / "qubit_driven.json").read_text())
        doc["frequencies"] = [w * 1e300 for w in doc["frequencies"]]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        res = run_cli("synthesize", str(path))
        assert res.returncode == 3, res.stdout
        error = json.loads(res.stdout)["error"]
        assert error["type"] == "Overflow" and "tail" in error["message"]


_NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
import qmme, qmme.cli
model = sys.argv[1]
codes = {}
for argv in (
    ["validate", model],
    ["synthesize", model],
    ["build", model],
    ["evolve", model, "--grid", "0:2:5", "--rho0", "plus"],
    ["spectrum", model],
    ["steady-state", model, "--grid", "0:10:40"],
    ["certify", model, "--grid", "0.1:2:3", "--pairs", "2"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        codes[argv[0]] = qmme.cli.main(argv)
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


class TestColdStart:
    """What a fresh process imports, and running the presets module as a script."""

    def _env(self):
        return {**os.environ, "PYTHONPATH": str(REPO / "src")}

    def test_cli_subcommands_load_no_scipy(self):
        res = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(MODELS_DIR / "qubit_driven.json")],
            capture_output=True, text=True, env=self._env(), cwd=REPO,
        )
        assert res.returncode == 0, res.stderr
        result = json.loads(res.stdout)
        assert result["codes"] == {name: 0 for name in result["codes"]}
        assert len(result["codes"]) == 7
        assert result["scipy"] == []

    def test_presets_module_runs_without_warning(self, tmp_path):
        res = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "qmme.presets", str(tmp_path)],
            capture_output=True, text=True, env=self._env(), cwd=REPO,
        )
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        assert sorted(p.name for p in tmp_path.glob("*.json")) == sorted(f"{name}.json" for name in PRESETS)


class TestBenchmarkTracer:
    """perfbench/tracer.py patches qmme's functions by name, so a deleted patch point breaks it."""

    def test_install_and_uninstall_restore_the_patch_points(self):
        spec = importlib.util.spec_from_file_location("perfbench_tracer", REPO / "perfbench" / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        rk4, sampler = dynamics.rk4_path, FourierOperatorSeries.__dict__["sampler"]
        traced = tracer.Tracer()
        try:
            traced.install()
            assert dynamics.rk4_path is not rk4
            assert FourierOperatorSeries.__dict__["sampler"] is not sampler
        finally:
            traced.uninstall()
        assert dynamics.rk4_path is rk4
        assert FourierOperatorSeries.__dict__["sampler"] is sampler
