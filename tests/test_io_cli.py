"""Serialization round trips and the command-line surface."""

import csv
import dataclasses
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

from qmme import cli, dynamics, generator, presets
from qmme.errors import ParseError, SchemaVersionMismatch
from qmme.fourier import FourierOperatorSeries
from qmme.io import (
    _format_float,
    _series_to_dict,
    dumps_canonical,
    load_density_matrix,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    write_trajectory_csv,
)
from qmme.model import BathSpectrum, ReducedModel, synthesize_hamiltonian, validate_model
from qmme.presets import PRESETS

from conftest import random_density
from test_generator import scaled_r3_models

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


def _per_entry(a):
    """Nested lists of an array built entry by entry, a complex entry as [re, im]:
    what the writer must write for an array leaf."""
    if a.ndim == 0:
        z = a.item()
        return [z.real, z.imag] if isinstance(z, complex) else z
    return [_per_entry(x) for x in a]


def _entry_lists(doc):
    """``doc`` with every array leaf replaced by its per-entry lists."""
    if isinstance(doc, np.ndarray):
        return _per_entry(doc)
    if isinstance(doc, dict):
        return {k: _entry_lists(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(_entry_lists(v) for v in doc)
    return doc


def _random_array(rnd, min_axes=0):
    """A real, complex or integer array of ``min_axes`` to three axes, some of
    them empty, with entries drawn from EDGE_FLOATS and their negatives."""
    shape = tuple(rnd.choice([0, 1, 2, 3]) for _ in range(rnd.randrange(min_axes, 4)))
    kind, size = rnd.choice("fci"), math.prod(shape)
    if kind == "i":
        return np.array([rnd.randint(-2**63, 2**63 - 1) for _ in range(size)], dtype=np.int64).reshape(shape)
    parts = [np.array([rnd.choice((1, -1)) * rnd.choice(EDGE_FLOATS) for _ in range(size)]).reshape(shape)
             for _ in range(2)]
    if kind == "f":
        return parts[0]
    a = np.empty(shape, dtype=complex)
    a.real, a.imag = parts
    return a


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


def _random_document(rnd, depth=0, arrays=False, in_list=False):
    """A random JSON document; with ``arrays``, array leaves too, of one axis
    or more ``in_list`` (a 0-d array in a list is not written as a number)."""
    if arrays and rnd.random() < 0.3:
        return _random_array(rnd, min_axes=int(in_list))
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
        return {_random_string(rnd): _random_document(rnd, depth + 1, arrays) for _ in range(rnd.randrange(5))}
    items = [_random_number(rnd) if rnd.random() < 0.4 else _random_document(rnd, depth + 1, arrays, True)
             for _ in range(1 + rnd.randrange(4))]
    return tuple(items) if kind == 5 else items


class TestCanonicalWriterReference:
    """dumps_canonical against the streaming writer it replaced, byte for byte."""

    def test_seeded_random_documents(self):
        rnd = random.Random(20240611)
        for i in range(400):
            doc = {"doc": _random_document(rnd), _random_string(rnd): _random_document(rnd)}
            assert dumps_canonical(doc) == _reference_dumps(doc), i

    def test_seeded_random_documents_with_array_leaves(self):
        rnd = random.Random(20261020)
        for i in range(400):
            doc = {"doc": _random_document(rnd, arrays=True), _random_string(rnd): _random_array(rnd)}
            assert dumps_canonical(doc) == _reference_dumps(_entry_lists(doc)), i

    def test_top_level_values(self):
        for doc in (None, True, 1.0, -0.0, 3, np.int64(-4), "q\"", [], {}, (1, [2.0]), [[], {}], [1, True, np.float64(2.5)]):
            assert dumps_canonical(doc) == _reference_dumps(doc), doc

    @pytest.mark.parametrize("a", [
        np.array(-0.0), np.array(2.5e-300), np.array(3), np.array(1 + 2j), np.arange(-3, 3).reshape(2, 3),
        np.array([2**63 - 1, -2**63]), np.arange(4, dtype=np.uint8), np.zeros((3, 0)), np.zeros((3, 0), dtype=complex),
        np.zeros((2, 0, 4)), np.zeros((0, 3)), np.array([0.1, -0.2], dtype=np.float32),
    ])
    def test_array_leaves(self, a):
        for doc in (a, [a] if a.ndim else {}, {"k": {"m": a}}):
            assert dumps_canonical(doc) == _reference_dumps(_entry_lists(doc)), doc

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_model_documents(self, name):
        doc = model_to_dict(PRESETS[name]())
        assert dumps_canonical(doc) == _reference_dumps(doc)

    @pytest.mark.parametrize("command", ["validate", "synthesize", "build", "spectrum", "steady-state", "certify"])
    def test_cli_documents(self, command, capsys):
        # written from array leaves; the reference writes the values they parse to
        assert cli.main([command, str(MODELS_DIR / "qutrit_thermal.json")]) == 0
        text = capsys.readouterr().out
        assert _reference_dumps(json.loads(text)) == text

    @pytest.mark.parametrize("bad", [
        {1: 0.0}, {"a": {"b": {None: 1}}}, [1.0, float("nan")], {"x": [float("inf")]}, -math.inf,
        np.bool_(True), [np.bool_(False)], {"s": {1.0}}, [1j], {"z": complex(1.0, 2.0)},
        np.array([True, False]), {"b": np.zeros((2, 0), dtype=bool)}, np.array(["a"]), np.array([1, None]),
        np.array([1.0, np.nan]), [np.array(np.inf)], {"c": np.array([[1.0, complex(0.0, -np.inf)]])},
    ])
    def test_unsupported_values_raise(self, bad):
        with pytest.raises(ParseError):
            _reference_dumps(bad)
        with pytest.raises(ParseError):
            dumps_canonical(bad)


class TestComplexPairs:
    """The writer puts [re, im] innermost in a complex array, entry by entry."""

    @pytest.mark.parametrize("shape", [(5,), (3, 3), (4, 2, 2), (0,), (0, 2, 2)])
    def test_matches_per_entry_conversion(self, rng, shape):
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        if a.size:
            a.flat[0] = complex(-0.0, -0.0)
            a.flat[-1] = complex(0.0, -0.0)
        # the reference writes -0.0 as -0.0, and every float at 17 digits
        for doc in (a, {"pad": [a]}):
            assert dumps_canonical(doc) == _reference_dumps(_entry_lists(doc))

    def test_lists_of_matrices_and_real_input(self):
        mats = [np.eye(2, dtype=complex), 1j * np.ones((2, 2))]
        assert dumps_canonical(mats) == _reference_dumps(_per_entry(np.array(mats)))
        assert dumps_canonical(np.array([-0.0, 2.0]).astype(complex)) == "[\n  [-0.0, 0.0],\n  [2.0, 0.0]\n]\n"
        assert dumps_canonical(np.array([-0.0, 2.0])) == "[-0.0, 2.0]\n"  # a real array has no pairs


class TestModelRoundTrip:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_dict_round_trip(self, name):
        model = PRESETS[name]()
        doc = model_to_dict(model)
        clone = model_from_dict(json.loads(dumps_canonical(doc)))
        # canonical text is reproducible through the round trip
        assert dumps_canonical(model_to_dict(clone)) == dumps_canonical(doc)

    def test_file_round_trip(self, tmp_path):
        model = PRESETS["qubit_driven"]()
        path = tmp_path / "m.json"
        save_model(model, path)
        clone = load_model(path)
        save_model(clone, tmp_path / "m2.json")
        assert (tmp_path / "m.json").read_bytes() == (tmp_path / "m2.json").read_bytes()

    def test_custom_bath_not_serializable(self):
        m = PRESETS["qubit_dephasing"]()
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


class TestParseErrors:
    def doc(self):
        return model_to_dict(PRESETS["qubit_dephasing"]())

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
        assert str(exc.value) == "model: missing required key 'p_series'"

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
        # a state file is a bare matrix of [re, im] pairs; a {"matrix": ...} wrapper is refused
        pairs = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"matrix": pairs}))
        b = tmp_path / "b.json"
        b.write_text(json.dumps(pairs))
        with pytest.raises(ParseError, match="density matrix: not a numeric array"):
            load_density_matrix(a)
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
        doc = model_to_dict(PRESETS["qubit_dephasing"]())
        doc["frequencies"] = [1.0, 2.0]
        path = tmp_path / "dep.json"
        path.write_text(dumps_canonical(doc))
        res = run_cli("validate", str(path))
        assert res.returncode == 1
        payload = json.loads(res.stdout)
        assert payload["passed"] is False
        assert payload["rational_independence"]["witness"] == [2, -1]

    def test_environment_sets_no_tolerance(self, monkeypatch, capsys):
        model = str(MODELS_DIR / "qubit_dephasing.json")
        assert cli.main(["validate", model]) == 0
        expect = capsys.readouterr().out
        monkeypatch.setenv("QMME_TOL_HERM", "nan")
        assert cli.build_parser().parse_args(["validate", model]).tol_herm == 1e-10
        assert cli.main(["validate", model]) == 0
        assert capsys.readouterr().out == expect

    def test_p_generator_document_is_refused(self, tmp_path, capsys):
        # p is read from its coefficients alone; a recipe for building them is not a model
        doc = model_to_dict(PRESETS["qubit_driven"]())
        del doc["p_series"]
        doc["p_generator"] = {"trunc": 8, "terms": [{"profile": "sin", "index": [1, 0], "amplitude": 0.3,
                                                     "matrix": doc["h_bar"]}]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == {
            "type": "ParseError", "message": "model: missing required key 'p_series'"}

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



def _mutated(doc, edit):
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return json.dumps(doc)


MALFORMED = {
    "family-not-a-name": lambda d: d["bath"].update(family=["flat"]),
    "gamma-not-a-number": lambda d: d["bath"]["params"].update(gamma="abc"),
    "trunc-not-a-number": lambda d: d["p_series"].update(trunc="x"),
    "trunc-not-an-integer": lambda d: d["p_series"].update(trunc=1.5),
    "index-wrong-length": lambda d: d["p_series"]["coefficients"][0].update(n=[0]),
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
        doc = model_to_dict(PRESETS["qubit_dephasing"]())
        doc["bath"]["params"]["gamma"] = "abc"
        with pytest.raises(ParseError, match=r"model\.bath\.params\.gamma"):
            model_from_dict(doc)
        doc = model_to_dict(PRESETS["qubit_dephasing"]())
        doc["p_series"]["coefficients"][0]["n"] = [0, True]
        with pytest.raises(ParseError, match=r"coefficients\[0\]\.n\[1\]"):
            model_from_dict(doc)

    def test_bad_coefficient_matrix_named(self):
        doc = model_to_dict(PRESETS["qubit_driven"]())
        doc["p_series"]["coefficients"][3]["matrix"][0][1] = [1e400, 0.0]
        with pytest.raises(ParseError, match=r"coefficients\[3\]: non-finite entry"):
            model_from_dict(doc)
        doc = model_to_dict(PRESETS["qubit_driven"]())
        doc["p_series"]["coefficients"][3]["matrix"] = [[[1.0, 0.0]]]
        with pytest.raises(ParseError, match=r"different shapes \[\(1, 1\), \(2, 2\)\]"):
            model_from_dict(doc)


def _run_in_process(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return code, json.loads(out)


BATH_PARAMETERS = {  # case: (model, bath parameters it sets)
    "gamma-negative": ("qubit_dephasing", {"gamma": -1.0}),
    "kappa-zero": ("qutrit_thermal", {"kappa": 0.0}),
    "kappa-negative": ("qutrit_thermal", {"kappa": -1.0}),
    "cutoff-zero": ("qutrit_thermal", {"cutoff": 0.0}),
    "beta-zero": ("qutrit_thermal", {"beta": 0.0}),
    "kappa-5e307": ("qutrit_thermal", {"kappa": 5e307}),
}


class TestCliExitContract:
    """Bad inputs end in a contract exit code and a JSON error, run in-process."""

    @pytest.mark.parametrize("case, code, kind", [
        ("non-utf8-model", 2, "ParseError"),
        ("nan-grid", 2, "ParseError"),
        ("huge-grid", 2, "DimensionMismatch"),
        # a p_series tail below 0 would pass as a bound that no series meets
        ("negative-tail", 2, "DimensionMismatch"),
        # qubit_driven's frequencies times 1e300 give coefficients of about 3e299, whose
        # squares overflow but whose norms do not: validate and synthesize pass silently
        ("huge-frequencies", 0, None),
        ("huge-frequencies-synthesize", 0, None),
        # qubit_dephasing's gamma 1e300: norms taken past overflowing squares raise no warning
        ("huge-gamma-build", 0, None),
        ("huge-gamma-spectrum", 0, None),
        ("huge-gamma-steady-state", 0, None),
        ("huge-gamma-certify", 0, None),
        ("huge-gamma-evolve", 3, "NoConvergence"),
        # qubit_dephasing's h_bar times 1e300: its eigendecomposition's norms raise no warning
        ("huge-hbar-validate", 0, None),
        ("huge-hbar-build", 0, None),
        # gamma 1e308 puts the dissipator past the float range, and coupling entries times
        # 1e200 put X there: refused by its result as the quantity it is, numpy's warnings held
        ("gamma-1e308-build", 3, "Overflow"),
        *[(f"couplings-1e200-{command}", 3, "Overflow")
          for command in ("build", "evolve", "spectrum", "steady-state", "certify")],
        # qubit_driven passes its unitarity bound, but at t = 5e199, or with its frequencies
        # times 1e300, a phase has no digit below its integer part: the evaluated p is not
        # unitary, a numerical failure and not a failed physics check
        *[(f"lost-phase-{how}-{command}", 3, "Overflow")
          for how in ("grid", "frequencies") for command in ("evolve", "steady-state", "certify")],
        # qubit_driven's frequencies times 1e307 put the lattice rates past the float range, box ||omega||_1
        # for the scans and trunc ||omega||_1 for the series: refused by name before any phase is formed
        *[(f"frequencies-1e307-{command}", 3, "Overflow") for command in
          ("validate", "synthesize", "build", "evolve", "spectrum", "steady-state", "certify")],
        # coupling entries times 1e307 put the interaction-picture coupling series past the float range
        *[(f"couplings-1e307-{name}", 3, "Overflow") for name in ("qubit_driven", "qutrit_thermal")],
        # p's phase at t = 1e308 is not finite: refused before any cosine, exp(t X) or SVD
        ("phase-overflow-evolve", 3, "Overflow"),
        ("phase-overflow-steady-state", 3, "Overflow"),
        ("phase-overflow-certify", 3, "Overflow"),
        # qutrit_thermal_static's p is constant, so no phase refuses t = 1e308, and exp(t X) is
        # finite there: its kernel eigenvalue is exactly 0 and the map is the projector onto the
        # Gibbs state, which certifies; only the direct march refuses a grid of that length
        ("phase-overflow-evolve-static", 2, "DimensionMismatch"),
        ("phase-overflow-steady-state-static", 0, None),
        ("phase-overflow-certify-static", 0, None),
        # a bath rate (gamma, kappa) may be 0 or more; a scale (cutoff, beta) must be positive
        ("gamma-negative", 2, "DimensionMismatch"),
        ("kappa-zero", 0, None),
        ("kappa-negative", 2, "DimensionMismatch"),
        ("cutoff-zero", 2, "DimensionMismatch"),
        ("beta-zero", 2, "DimensionMismatch"),
        # kappa 5e307 puts the bath's h past the float range: refused before the dissipator
        ("kappa-5e307", 3, "Overflow"),
        ("huge-box", 2, "DimensionMismatch"),
        ("box-zero", 2, "DimensionMismatch"),
        ("box-negative", 2, "DimensionMismatch"),
        # a NaN or negative tolerance would switch its check off, and a step-halving
        # bound that is not positive and finite could never be met or never be tested
        ("tol-nan", 2, "ParseError"),
        ("tol-negative", 2, "ParseError"),
        ("tol-integrate-zero", 2, "ParseError"),
        ("tol-integrate-inf", 2, "ParseError"),
        # numpy refuses a negative seed, and a negative pair count would certify no pair
        ("seed-negative", 2, "ParseError"),
        ("pairs-negative", 2, "ParseError"),
        # argparse's own usage errors
        ("box-not-a-number", 2, "ParseError"),
        ("model-missing", 2, "ParseError"),
        ("command-missing", 2, "ParseError"),
        ("grid-like-an-option", 2, "ParseError"),
        # the parser refuses a malformed --grid before the model is read or validated
        ("grid-before-missing-model", 2, "ParseError"),
        ("grid-before-inadmissible-model", 2, "ParseError"),
    ])
    def test_exit_code_and_json(self, case, code, kind, tmp_path, capsys):
        model = str(MODELS_DIR / "qubit_dephasing.json")
        violating = str(MODELS_DIR / "qubit_congruence_violating.json")
        table = {
            "tol-nan": ["validate", violating, "--tol-congruence", "nan"],
            "tol-negative": ["validate", violating, "--tol-congruence", "-1"],
            "tol-integrate-zero": ["evolve", model, "--tol-integrate", "0"],
            "tol-integrate-inf": ["evolve", model, "--tol-integrate", "inf"],
            "seed-negative": ["certify", model, "--seed", "-1"],
            "pairs-negative": ["certify", model, "--pairs", "-3"],
            "box-not-a-number": ["validate", model, "--box", "x"],
            "model-missing": ["validate"],
            "command-missing": [],
            "grid-like-an-option": ["evolve", model, "--grid", "-1:1:3"],
            "grid-before-missing-model": ["evolve", str(tmp_path / "missing.json"), "--grid", "0:1:1"],
            "grid-before-inadmissible-model": ["evolve", violating, "--grid", "5:0:10"],
        }
        if case in table:
            argv = table[case]
        elif case == "non-utf8-model":
            bad = tmp_path / "model.json"
            bad.write_bytes(b'\xff\xfe{"schema": "qmme-model"}')
            argv = ["validate", str(bad)]
        elif case in ("negative-tail", "huge-frequencies", "huge-frequencies-synthesize") or case.startswith(
                ("couplings-1e200-", "lost-phase-frequencies-")):
            doc = json.loads((MODELS_DIR / "qubit_driven.json").read_text())
            if case == "negative-tail":
                doc["p_series"]["tail_norm"] = -1.0
            elif case.startswith("couplings-"):
                doc["couplings"] = (1e200 * np.array(doc["couplings"])).tolist()
            else:
                doc["frequencies"] = [w * 1e300 for w in doc["frequencies"]]
            (tmp_path / "model.json").write_text(json.dumps(doc))
            command = case.rsplit("1e200-", 1)[-1].removeprefix("lost-phase-frequencies-")
            argv = [{"huge-frequencies": "validate", "negative-tail": "synthesize",
                     "huge-frequencies-synthesize": "synthesize"}.get(case, command), str(tmp_path / "model.json")]
        elif case.startswith(("frequencies-1e307-", "couplings-1e307-")):
            scaled, what = case.split("-1e307-")
            doc = json.loads((MODELS_DIR / f"{'qubit_driven' if scaled == 'frequencies' else what}.json").read_text())
            doc[scaled] = (1e307 * np.array(doc[scaled])).tolist()
            (tmp_path / "model.json").write_text(json.dumps(doc))
            argv = [what if scaled == "frequencies" else "build", str(tmp_path / "model.json")]
        elif case.startswith("lost-phase-grid-"):
            argv = [case.removeprefix("lost-phase-grid-"), str(MODELS_DIR / "qubit_driven.json"), "--grid", "0:1e200:3"]
        elif case == "gamma-1e308-build":
            doc = json.loads(Path(model).read_text())
            doc["bath"]["params"]["gamma"] = 1e308
            (tmp_path / "model.json").write_text(json.dumps(doc))
            argv = ["build", str(tmp_path / "model.json")]
        elif case.startswith(("huge-gamma-", "huge-hbar-")):
            doc = json.loads(Path(model).read_text())
            if case.startswith("huge-gamma-"):
                doc["bath"]["params"]["gamma"] = 1e300
            else:
                doc["h_bar"] = (1e300 * np.array(doc["h_bar"])).tolist()
            (tmp_path / "model.json").write_text(json.dumps(doc))
            argv = [case.split("-", 2)[2], str(tmp_path / "model.json")]
        elif case in BATH_PARAMETERS:
            name, value = BATH_PARAMETERS[case]
            doc = json.loads((MODELS_DIR / f"{name}.json").read_text())
            doc["bath"]["params"].update(value)
            (tmp_path / "model.json").write_text(json.dumps(doc))
            # build evaluates the zero and the overflowing bath; the other refusals come at load,
            # before validate checks anything
            argv = ["build" if case in ("kappa-zero", "kappa-5e307") else "validate", str(tmp_path / "model.json")]
        elif case.startswith("phase-overflow-"):
            name = "qutrit_thermal_static" if case.endswith("-static") else "qubit_driven"
            command = case.removeprefix("phase-overflow-").removesuffix("-static")
            argv = [command, str(MODELS_DIR / f"{name}.json"), "--grid", "0:1e308:3"]
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
        if case.startswith("grid-before-"):
            assert "--grid" in payload["error"]["message"]
        named = {"gamma-1e308": "dissipator is past the float range", "couplings-1e200": "is past the float range",
                 "lost-phase-grid": "p(5e+199) lost its phase", "lost-phase-frequencies": "lost its phase",
                 "kappa-5e307": "contains non-finite entries",
                 "frequencies-1e307": "have rates past the float range at |n_i| <=",
                 "couplings-1e307": "interaction-picture coupling series is past the float range"}
        for prefix, fragment in named.items():
            if case.startswith(prefix):
                assert fragment in payload["error"]["message"]

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
        # p = diag(exp(-400 i theta1), exp(400 i theta1)) is exactly unitary; validate's
        # unitarity bound and build's products need a workspace of radius 800, 1601^2
        # points, which is refused before allocating
        doc = model_to_dict(PRESETS["qubit_driven"]())
        doc["p_series"] = {"r": 2, "dim": 2, "trunc": 400, "tail_norm": 0.0, "coefficients": [
            {"n": [sign * 400, 0], "matrix": [[[1.0 - k, 0.0], [0.0, 0.0]], [[0.0, 0.0], [k, 0.0]]]}
            for k, sign in ((0.0, -1), (1.0, 1))]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "build"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = cli.main([command, str(path)])
            out, err = capsys.readouterr()
            assert err == "" and not caught
            assert got == 2, out
            payload = json.loads(out)
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


@pytest.fixture(scope="module")
def scaled_model_files(tmp_path_factory):
    """scaled_r3_models(1) at d = 3, 6 and 10, written as model files: r = 3, where
    every shipped model has r <= 2, up to the north star's d = 10."""
    root = tmp_path_factory.mktemp("scaled")
    paths = {}
    for model in scaled_r3_models(1, (3, 6, 10)):
        paths[model.dim] = str(root / f"r3_d{model.dim}.json")
        save_model(model, paths[model.dim])
    return paths


class TestCliBuild:
    @pytest.mark.parametrize("d", [3, 6, 10])
    def test_scaled_models_validate_and_build(self, d, scaled_model_files, capsys):
        # at d = 10 the build sums eigenbasis entries over 13,273 blocks
        for command in ("validate", "build"):
            got = cli.main([command, scaled_model_files[d]])
            out, err = capsys.readouterr()
            assert got == 0 and err == "", out[:500]
        if d == 10:  # a fresh process, under another hash seed, writes the same document
            res = run_cli("build", scaled_model_files[d], env_extra={"PYTHONHASHSEED": "random"})
            assert res.returncode == 0 and res.stderr == ""
            assert res.stdout == out

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

    @pytest.mark.parametrize("name, grid, count", [
        ("qutrit_thermal_static", None, 200),
        # above the step-matrix march (d <= 4): the master equation by per-substep stages
        ("r3_d6", None, 200),
        ("r3_d6", "0:200:21", 21),  # 71 chunks of 113 substeps on the last level
    ])
    def test_evolve_in_process_tracks_master_equation(self, name, grid, count, scaled_model_files, capsys):
        path = scaled_model_files[6] if name == "r3_d6" else str(MODELS_DIR / f"{name}.json")
        got = cli.main(["evolve", path, "--rho0", "plus", *(["--grid", grid] if grid else [])])
        out, err = capsys.readouterr()
        assert got == 0 and err == "", out[:500]
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == count
        assert max(float(r["dist"]) for r in rows) <= 1e-6

    @staticmethod
    def _evolve_driven(rho0, capsys):
        """Exit code and stdout of a short in-process evolve of qubit_driven from ``rho0``."""
        got = cli.main(["evolve", str(MODELS_DIR / "qubit_driven.json"), "--grid", "0:2:3", "--rho0", rho0])
        out, err = capsys.readouterr()
        assert err == ""
        return got, out

    @pytest.mark.parametrize("wrapped", [False, True])
    def test_rho0_file_matches_named_state(self, wrapped, tmp_path, capsys):
        plus = [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]
        path = tmp_path / "plus.json"
        path.write_text(json.dumps({"matrix": plus} if wrapped else plus))
        from_file = self._evolve_driven(str(path), capsys)
        if wrapped:  # a state file is a bare matrix: the {"matrix": ...} form is a usage error
            assert from_file[0] == 2
            assert json.loads(from_file[1])["error"]["type"] == "ParseError"
        else:
            assert from_file[0] == 0
            assert from_file == self._evolve_driven("plus", capsys)

    def test_rho0_ground_is_the_lowest_level(self, capsys):
        got, out = self._evolve_driven("ground", capsys)
        assert got == 0, out
        row = next(csv.DictReader(io.StringIO(out)))  # t = 0, where p(0) = I
        rho = np.array([[float(row[f"re_{i}{j}"]) + 1j * float(row[f"im_{i}{j}"]) for j in range(2)]
                        for i in range(2)])
        h_bar = load_model(MODELS_DIR / "qubit_driven.json").h_bar
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(rho @ h_bar).real == pytest.approx(np.linalg.eigvalsh(h_bar)[0], abs=1e-12)

    @pytest.mark.parametrize("rho0, kind", [("qutrit.json", "DimensionMismatch"), ("excited", "ParseError")])
    def test_rho0_refused(self, rho0, kind, tmp_path, capsys):
        # a state of the wrong dimension, and a name that is neither a named state nor a file
        if rho0.endswith(".json"):
            rho0 = str(tmp_path / rho0)
            Path(rho0).write_text(json.dumps(np.stack([np.eye(3) / 3, np.zeros((3, 3))], -1).tolist()))
        got, out = self._evolve_driven(rho0, capsys)
        assert got == 2
        assert json.loads(out)["error"]["type"] == kind

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
        # a p tail of 1e300 times itself makes H's tail inf; the numerical failure
        # exits 3 and is not left to the JSON writer (exit 2)
        doc = json.loads((MODELS_DIR / "qubit_driven.json").read_text())
        doc["p_series"]["tail_norm"] = 1e300
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        res = run_cli("synthesize", str(path))
        assert res.returncode == 3 and res.stderr == "", res.stdout
        error = json.loads(res.stdout)["error"]
        assert error == {"type": "Overflow", "message": "synthesized Hamiltonian tail inf is not finite"}


class TestCliSynthesizeFlags:
    """synthesize validates nothing: it takes the model, --out and --tol-unitary alone."""

    MODEL = str(MODELS_DIR / "qubit_driven.json")

    @pytest.mark.parametrize("flag, value", [("--box", "3"), ("--tol-herm", "5"), ("--tol-cluster", "1e-3"),
                                             ("--tol-independence", "1e-3"), ("--tol-congruence", "1e-3")])
    def test_validation_flags_are_usage_errors(self, flag, value, capsys):
        got = cli.main(["synthesize", self.MODEL, flag, value])
        out, err = capsys.readouterr()
        assert got == 2 and err == ""
        error = json.loads(out)["error"]
        assert error["type"] == "ParseError" and flag in error["message"]

    def test_trunc_out_and_tol_unitary(self, tmp_path, capsys):
        # p cut to trunc 2 drifts from unitary by 6.2e-4: the default bound refuses it. A
        # truncated model is a model file; there is no flag that edits p after it is read.
        mdl = load_model(self.MODEL)
        mdl = dataclasses.replace(mdl, p_series=mdl.p_series.truncate(2))
        save_model(mdl, tmp_path / "trunc2.json")
        expect = synthesize_hamiltonian(mdl.p_series, mdl.frequencies, mdl.h_bar, tol_unitary=1e-3)
        assert cli.main(["synthesize", self.MODEL, "--trunc", "2"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ParseError" and "--trunc" in error["message"]
        argv = ["synthesize", str(tmp_path / "trunc2.json")]
        out_dir = tmp_path / "out"
        assert cli.main(argv + ["--tol-unitary", "1e-3", "--out", str(out_dir)]) == 0
        assert capsys.readouterr().out == f"{out_dir / 'h_series.json'}\n"
        assert (out_dir / "h_series.json").read_text() == dumps_canonical(_series_to_dict(expect))
        assert cli.main(argv) == 1
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "NotUnitary"


class TestCliToleranceFlags:
    """--tol-trace, --tol-choi, --tol-spectral and --tol-psd each reach their check: a value
    that moves the outcome from the default's, echoed where the document holds it."""

    DEPHASING = str(MODELS_DIR / "qubit_dephasing.json")

    @staticmethod
    def _run(argv, capsys):
        got = cli.main(argv)
        out, err = capsys.readouterr()
        assert err == ""
        return got, json.loads(out)

    def test_tol_trace(self, capsys):
        # qubit_driven's worst trace defect, about 6e-15, is within the default 1e-12
        argv = ["certify", str(MODELS_DIR / "qubit_driven.json")]
        got, cert = self._run(argv, capsys)
        assert got == 0 and cert["passed"] is True and cert["tol_trace"] == 1e-12
        got, cert = self._run(argv + ["--tol-trace", "1e-15"], capsys)
        assert got == 1 and cert["passed"] is False and cert["tol_trace"] == 1e-15
        assert 1e-15 < cert["worst_trace_defect"] <= 1e-12

    def test_tol_choi(self, capsys):
        # qubit_dephasing's lowest Choi eigenvalue is -2.2e-16, a rounding below 0
        got, cert = self._run(["certify", self.DEPHASING], capsys)
        assert got == 0 and cert["passed"] is True and cert["tol_choi"] == 1e-10
        got, cert = self._run(["certify", self.DEPHASING, "--tol-choi", "0"], capsys)
        assert got == 1 and cert["passed"] is False and cert["tol_choi"] == 0.0
        assert -1e-10 <= cert["worst_choi_eig"] < 0

    def test_tol_spectral(self, capsys):
        # at 1 the two coherences, decaying at rate 0.5, count as kernel modes
        got, report = self._run(["spectrum", self.DEPHASING], capsys)
        assert got == 0 and (report["k0"], report["n_decaying"], report["tol_spec"]) == (2, 2, 1e-9)
        got, report = self._run(["spectrum", self.DEPHASING, "--tol-spectral", "1"], capsys)
        assert got == 0 and (report["k0"], report["n_decaying"], report["tol_spec"]) == (4, 0, 1.0)

    @pytest.mark.parametrize("command", ["build", "evolve", "spectrum", "steady-state", "certify"])
    def test_tol_psd_reaches_the_build(self, command, monkeypatch, capsys):
        # no shipped bath has a negative h, so a spy shows the value that build_generator gets
        seen, build = [], generator.build_generator

        def spy(*args, **kwargs):
            seen.append(kwargs["tol_psd"])
            return build(*args, **kwargs)

        monkeypatch.setattr(generator, "build_generator", spy)
        argv = [command, self.DEPHASING, *{"evolve": ["--grid", "0:1:3"],
                                          "certify": ["--grid", "0.1:1:2", "--pairs", "1"]}.get(command, [])]
        assert cli.main(argv + ["--tol-psd", "0.5"]) == 0 and cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        assert seen == [0.5, 1e-12]


class TestCliOneDecomposition:
    """Each subcommand decomposes what it needs once."""

    def test_one_eigendecomposition_per_steady_state(self, monkeypatch, capsys):
        # the map's eigensystem, kernel eigenvalue exactly 0, also classifies the spectrum
        calls, eig = [], np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(np.shape(a)) or eig(a))
        assert cli.main(["steady-state", str(MODELS_DIR / "qutrit_thermal.json")]) == 0
        assert calls == [(9, 9)]
        stability = json.loads(capsys.readouterr().out)["stability"]
        assert [0.0, 0.0] in stability["eigenvalues"] and stability["k0"] == 1

    def test_one_decomposition_of_h_bar_per_build(self, monkeypatch, capsys):
        # validate's decomposition is the build's, from the command line and from
        # build_generator(validate=True); the spy leaves the document as it was
        from qmme import bohr
        path, calls, decompose = str(MODELS_DIR / "qutrit_thermal.json"), [], bohr.decompose
        assert cli.main(["build", path]) == 0
        out = capsys.readouterr().out
        for mod in (bohr, generator):  # the model module calls bohr.decompose, the generator its own name
            monkeypatch.setattr(mod, "decompose", lambda *a, **k: calls.append(1) or decompose(*a, **k))
        assert cli.main(["build", path]) == 0 and len(calls) == 1
        assert capsys.readouterr().out == out
        calls.clear()
        generator.build_generator(load_model(path))
        assert len(calls) == 1


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

        def attributes():
            """Every attribute of every loaded qmme module and of the classes they define."""
            modules = [m for name, m in sys.modules.items() if name == "qmme" or name.startswith("qmme.")]
            owners = modules + [c for m in modules for c in vars(m).values()
                                if isinstance(c, type) and c.__module__ == m.__name__]
            return {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}

        before = attributes()
        traced = tracer.Tracer()
        try:
            traced.install()
            patched = [key for key, value in attributes().items() if before.get(key) is not value]
            recorded = [(owner, attr) for owner, attr, _ in traced._undo]
            # the traced counters read jump operators and shifted frequencies by name
            mdl = PRESETS["qutrit_thermal"]()
            bundle = generator.build_generator(mdl, validate=False)
            generator.cross_check_selection_rule(bundle, mdl.bath, mdl.frequencies)
        finally:
            traced.uninstall()
        assert (dynamics, "rk4_path") in patched and (FourierOperatorSeries, "sampler") in patched
        assert len(patched) == len(recorded) and set(patched) == set(recorded) <= set(before)
        after = attributes()
        assert after.keys() == before.keys()
        assert [key for key, value in after.items() if before[key] is not value] == []
        assert traced.counts["bohr.jump_ops"] > 0 and traced.counts["generator.selection_pairs"] > 0


class TestCliOutputsDiffer:
    """tests/cli_outputs.py, which compares the command line's outputs between two trees."""

    def test_src_against_itself(self):
        src = str(REPO / "src")
        labels = ["qubit_dephasing validate", "qubit_driven evolve --rho0 plus", "qubit_driven evolve --rho0 FILE"]
        res = subprocess.run([sys.executable, str(REPO / "tests" / "cli_outputs.py"), src, src, *labels],
                             capture_output=True, text=True)
        assert res.returncode == 0 and res.stderr == ""
        assert res.stdout.splitlines() == [f"{label}: identical" for label in labels] + ["3 of 3 calls identical"]

    def test_reports_each_changed_column_and_field(self, capsys):
        import cli_outputs

        assert cli.main(["evolve", str(MODELS_DIR / "qubit_driven.json"), "--grid", "0:1:3"]) == 0
        text = capsys.readouterr().out
        header, row, *rest = text.splitlines()
        cells = row.split(",")
        at = header.split(",").index("re_01")
        cells[at] = _format_float(np.nextafter(float(cells[at]), np.inf))  # one ulp
        planted = "\n".join([header, ",".join(cells), *rest]) + "\n"
        spacing = abs(float(cells[at]) - float(row.split(",")[at]))
        assert cli_outputs.compare((0, text, ""), (0, text, "")) == ["identical"]
        assert cli_outputs.compare((0, text, ""), (0, planted, "")) == [
            "  exit 0 -> 0", f"  re_01: 1 changed, largest {spacing:.3g}"]
        assert cli_outputs.compare((0, '{"a": [[1.0, 2.0]], "b": true}\n', ""), (1, '{"a": [[1.0, 2.5]], "b": 1}\n', "w")) == [
            "  exit 0 -> 1", "  stderr parent: ''", "  stderr child:  'w'",
            "  a[][]: 1 changed, largest 0.5", "  b: 1 changed, largest (not a number)"]
