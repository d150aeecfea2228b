"""Deterministic JSON model files and CSV trajectory output.

Schema (version 1): an object with

    schema        "qmme-model"
    version       1
    frequencies   [w1, ..., wr]
    h_bar         complex matrix
    couplings     [complex matrix, ...]
    bath          {"family": name, "params": {...}}
    p_series      {"r", "dim", "trunc", "tail_norm",
                   "coefficients": [{"n": [...], "matrix": ...}, ...]}

Complex scalars are written as [re, im] pairs, matrices as nested lists of
pairs. On load, ``p_generator`` with serializable profile terms is accepted
in place of ``p_series``; saving always writes explicit coefficients.
Serialization is canonical: sorted keys, floats at 17 significant digits, so
identical models produce byte-identical files.
"""

import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import ParseError, SchemaVersionMismatch
from .fourier import FourierOperatorSeries
from .linalg import hermitize
from .model import _BATH_FAMILIES, ReducedModel, bath_from_family, p_series_from_generator

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "model_to_dict",
    "model_from_dict",
    "load_model",
    "save_model",
    "load_density_matrix",
    "dumps_canonical",
    "write_trajectory_csv",
]

SCHEMA_NAME = "qmme-model"
SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# canonical JSON writer
# ---------------------------------------------------------------------------

def _format_float(x):
    x = float(x)
    if not math.isfinite(x):
        raise ParseError(f"non-finite value {x!r} cannot be serialized")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def _canonical(obj, pad=""):
    """Canonical JSON text of ``obj`` whose nested lines are indented past ``pad``:
    sorted keys one a line, a list of numbers on one line, any other list one
    item a line."""
    if isinstance(obj, (float, np.floating)):
        return _format_float(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        lines = []
        for k in sorted(obj, key=str):
            if not isinstance(k, str):
                raise ParseError(f"JSON object keys must be strings, got {k!r}")
            lines.append(f"{pad}  {encode_basestring_ascii(k)}: {_canonical(obj[k], pad + '  ')}")
        return "{\n" + ",\n".join(lines) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, (int, float, np.integer, np.floating)) for v in obj):
            return "[" + ", ".join([_canonical(v) for v in obj]) + "]"
        return "[\n" + ",\n".join([f"{pad}  {_canonical(v, pad + '  ')}" for v in obj]) + f"\n{pad}]"
    if obj is None or obj is True or obj is False:
        return json.dumps(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    raise ParseError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_canonical(obj):
    """Serialize to deterministic JSON text (sorted keys, fixed float format)."""
    return _canonical(obj) + "\n"


# ---------------------------------------------------------------------------
# matrices and complex pairs
# ---------------------------------------------------------------------------

def _pairs(a):
    """A complex array of any shape as nested lists whose innermost items are [re, im]."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def _series_to_dict(series):
    """A Fourier series as the schema's ``p_series`` object, coefficients in index order."""
    return {
        "r": series.r,
        "dim": series.d,
        "trunc": series.trunc,
        "tail_norm": float(series.tail_norm),
        "coefficients": [{"n": list(n), "matrix": m}
                         for n, m in zip(series.coeffs, _pairs(list(series.coeffs.values())))],
    }


def _matrix_from_json(v, where):
    try:
        arr = np.asarray(v, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: not a numeric array ({exc})") from None
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ParseError(
            f"{where}: expected a square matrix of [re, im] pairs, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ParseError(f"{where}: non-finite entry")
    return arr[..., 0] + 1j * arr[..., 1]


def _matrices_from_json(values, where):
    """:func:`_matrix_from_json` over a list of equal-shape matrices, converted
    in one call; on failure the first bad entry is named."""
    if not values:
        return np.zeros((0, 0, 0), dtype=complex)
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        arr = np.zeros(0)
    if arr.ndim != 4 or arr.shape[3] != 2 or arr.shape[1] != arr.shape[2] or not np.isfinite(arr).all():
        shapes = {_matrix_from_json(v, f"{where}[{i}]").shape for i, v in enumerate(values)}
        raise ParseError(f"{where}: matrices of different shapes {sorted(shapes)}")
    return arr[..., 0] + 1j * arr[..., 1]


def _number(value, where, integer=False):
    """A finite JSON number, or an integral one when ``integer`` is set.

    Raises ParseError naming the JSON path ``where`` for anything else:
    strings, booleans, non-integral counts, and values the JSON reader
    turned into infinity (such as 1e400).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ParseError(f"{where}: non-finite value {value!r}")
    if not integer:
        return x
    if x != int(x):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return int(x)


def _numbers(values, where, integer=False):
    """A JSON list of numbers, each checked by :func:`_number`."""
    if not isinstance(values, list):
        raise ParseError(f"{where}: expected a list of numbers")
    try:
        return [_number(v, where, integer) for v in values]
    except ParseError:  # name the failing element; its path is only built here
        for i, v in enumerate(values):
            _number(v, f"{where}[{i}]", integer)
        raise


def _require(d, key, where):
    if not isinstance(d, dict):
        raise ParseError(f"{where}: expected an object")
    if key not in d:
        raise ParseError(f"{where}: missing required key {key!r}")
    return d[key]


# ---------------------------------------------------------------------------
# model <-> dict
# ---------------------------------------------------------------------------

def model_to_dict(model):
    """Plain-data form of a model. The bath must come from a named family."""
    if model.bath.family == "custom":
        raise ParseError(
            "a bath built from raw callables has no serializable form; "
            f"build it from one of the named families {sorted(_BATH_FAMILIES)}"
        )
    return {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "frequencies": model.frequencies.tolist(),
        "h_bar": _pairs(model.h_bar),
        "couplings": _pairs(model.couplings),
        "bath": {
            "family": model.bath.family,
            "params": {k: float(v) for k, v in sorted(model.bath.params.items())},
        },
        "p_series": _series_to_dict(model.p_series),
    }


def model_from_dict(data):
    if not isinstance(data, dict):
        raise ParseError("model document must be a JSON object")
    if data.get("schema") != SCHEMA_NAME:
        raise SchemaVersionMismatch(
            f"schema is {data.get('schema')!r}, expected {SCHEMA_NAME!r}"
        )
    if data.get("version") != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"schema version {data.get('version')!r} is not supported "
            f"(this reader handles version {SCHEMA_VERSION})"
        )
    omega = np.array(_numbers(_require(data, "frequencies", "model"), "model.frequencies"))
    h_bar = _matrix_from_json(_require(data, "h_bar", "model"), "model.h_bar")
    raw_couplings = _require(data, "couplings", "model")
    if not isinstance(raw_couplings, list) or not raw_couplings:
        raise ParseError("model.couplings: expected a nonempty list")
    couplings = [
        _matrix_from_json(s, f"model.couplings[{i}]") for i, s in enumerate(raw_couplings)
    ]
    bath_obj = _require(data, "bath", "model")
    family = _require(bath_obj, "family", "model.bath")
    if not isinstance(family, str):
        raise ParseError(f"model.bath.family: expected a family name, got {family!r}")
    params = bath_obj.get("params", {})
    if not isinstance(params, dict):
        raise ParseError("model.bath.params: expected an object")
    params = {k: _number(v, f"model.bath.params.{k}") for k, v in params.items()}
    try:
        bath = bath_from_family(family, params, len(couplings))
    except KeyError as exc:
        raise ParseError(f"model.bath: missing parameter {exc}") from None

    if "p_series" in data:
        ps = data["p_series"]
        r = _number(_require(ps, "r", "model.p_series"), "model.p_series.r", integer=True)
        trunc = _number(_require(ps, "trunc", "model.p_series"), "model.p_series.trunc", integer=True)
        coeff_list = _require(ps, "coefficients", "model.p_series")
        if not isinstance(coeff_list, list):
            raise ParseError("model.p_series.coefficients: expected a list")
        positions, matrices = {}, []
        for i, entry in enumerate(coeff_list):
            where = f"model.p_series.coefficients[{i}]"
            idx = tuple(_numbers(_require(entry, "n", where), f"{where}.n", integer=True))
            if idx in positions:
                raise ParseError(f"{where}: duplicate index {idx}")
            positions[idx] = i
            matrices.append(_require(entry, "matrix", where))
        stacked = _matrices_from_json(matrices, "model.p_series.coefficients")
        coeffs = {idx: stacked[i] for idx, i in positions.items()}
        dim = _number(ps.get("dim", h_bar.shape[0]), "model.p_series.dim", integer=True)
        tail = _number(ps.get("tail_norm", 0.0), "model.p_series.tail_norm")
        p_series = FourierOperatorSeries(r, dim, trunc, coeffs, tail_norm=tail)
    elif "p_generator" in data:
        pg = data["p_generator"]
        trunc = _number(_require(pg, "trunc", "model.p_generator"), "model.p_generator.trunc",
                        integer=True)
        raw_terms = _require(pg, "terms", "model.p_generator")
        if not isinstance(raw_terms, list) or not raw_terms:
            raise ParseError("model.p_generator.terms: expected a nonempty list")
        terms = []
        for i, td in enumerate(raw_terms):
            where = f"model.p_generator.terms[{i}]"
            index = _numbers(_require(td, "index", where), f"{where}.index", integer=True)
            if len(index) != omega.size:
                raise ParseError(f"{where}.index: has {len(index)} entries, expected r = {omega.size}")
            terms.append(
                {
                    "profile": _require(td, "profile", where),
                    "index": index,
                    "amplitude": _number(_require(td, "amplitude", where), f"{where}.amplitude"),
                    "matrix": _matrix_from_json(_require(td, "matrix", where), where),
                }
            )
        p_series = p_series_from_generator(terms, r=omega.size, trunc=trunc)
    else:
        raise ParseError("model: needs either 'p_series' or 'p_generator'")

    return ReducedModel(
        frequencies=omega,
        p_series=p_series,
        h_bar=h_bar,
        couplings=couplings,
        bath=bath,
    )


def _read_json(path):
    """Parsed JSON of a UTF-8 file; ParseError names the file and the position."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None


def load_model(path):
    """Read a model JSON file; raises ParseError with position on bad JSON."""
    return model_from_dict(_read_json(Path(path)))


def save_model(model, path):
    """Write a model as canonical JSON (always explicit coefficients)."""
    Path(path).write_text(dumps_canonical(model_to_dict(model)))


def load_density_matrix(path):
    """Read a density matrix from JSON: either {'matrix': ...} or a bare array."""
    data = _read_json(Path(path))
    if isinstance(data, dict):
        data = _require(data, "matrix", "density matrix")
    return _matrix_from_json(data, "density matrix")


# ---------------------------------------------------------------------------
# trajectory CSV
# ---------------------------------------------------------------------------

def _entry_columns(states, prefix=""):
    """The re_ij, im_ij columns of a (T, d, d) stack, row-major, as name (``prefix`` first) -> (T,) array."""
    d = states.shape[-1]
    names = [f"{prefix}{part}_{i}{j}" for i in range(d) for j in range(d) for part in ("re", "im")]
    parts = np.stack([states.real, states.imag], axis=-1).reshape(len(states), -1)
    return dict(zip(names, parts.T))


def write_trajectory_csv(out, ts, states, extra=None):
    """Write a trajectory as CSV to the text file object ``out``.

    Columns: t, re_ij/im_ij for every matrix entry (row-major), trace_re,
    min_eig, then any extra columns (name -> sequence). Floats use the same
    17-significant-digit format as the JSON writer.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    states = np.asarray(states, dtype=complex)
    if states.ndim != 3 or states.shape[0] != ts.size:
        raise ParseError(
            f"states must be (len(ts), d, d), got {states.shape} for {ts.size} times"
        )
    extra = dict(extra or {})
    for name, col in extra.items():
        if len(col) != ts.size:
            raise ParseError(f"extra column {name!r} has {len(col)} rows, expected {ts.size}")
    entries = _entry_columns(states)
    table = np.column_stack([
        ts, *entries.values(), np.trace(states, axis1=1, axis2=2).real,
        np.linalg.eigvalsh(hermitize(states))[:, 0], *(np.asarray(c, dtype=float) for c in extra.values()),
    ])
    out.write(",".join(["t", *entries, "trace_re", "min_eig", *extra]) + "\n")
    for row in table.tolist():
        out.write(",".join(map(_format_float, row)) + "\n")
