"""Compare the command line's outputs between two source trees.

    python tests/cli_outputs.py PARENT_SRC CHILD_SRC [LABEL ...]

Runs each call as a fresh ``python -m qmme`` process, once with each
``src`` directory on PYTHONPATH, on the models in ``models/``: the seven
subcommands on every model, ``evolve`` and ``steady-state`` under each
named ``--rho0``, ``certify`` at its default seed and at ``--seed 3`` (84
calls on the six shipped models); ``evolve`` of ``qubit_driven`` from the plus
state written to a file as a bare matrix (``--rho0 FILE``); ``evolve`` and
``certify`` of ``qubit_driven`` on ``--grid 0:1e200:3``, where p's phase is lost;
``validate`` of ``qubit_dephasing`` with ``h_bar`` times 1e300, ``build`` of
``qutrit_thermal`` with ``kappa`` 5e307, ``validate`` and ``build`` of
``qubit_driven`` with its frequencies times 1e307 and ``build`` of
``qutrit_thermal`` with its couplings times 1e307, all written from
``models/``; ``certify --pairs 5 --grid 0:40:7`` of ``qutrit_thermal``; and two
calls on the seed-1, r = 3 models of ``test_generator.scaled_r3_models``,
written by the child tree: ``build`` at d = 10 and ``evolve --rho0 plus`` at
d = 6, whose master equation is marched above ``dynamics._STEP_MATRIX_MAX_DIM``
(95 calls in all). A LABEL (as printed, e.g. ``"qubit_dephasing validate"``)
limits the run to the calls it names. Every call runs without the environment's ``QMME_*`` variables, so
trees that read them and trees that do not see the same inputs.

Each call prints "identical" when exit code, stdout and stderr agree.
Otherwise it prints both exit codes, both stderrs when they differ, and each
changed JSON field (list indices dropped from its path) or CSV column with
the number of values that changed and the largest change. Exits 1 when any
call differs. Pytest does not collect this file.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
MODELS = TESTS.parent / "models"
STATES = ("mixed", "basis0", "plus", "ground")


def calls(tmp):
    """(label, argv) of every call, models in name order; the plus state, the four
    extreme models and the seeded r = 3 model of dimension d are read from ``tmp``
    as ``plus.json``, ``huge_hbar.json``, ``kappa_5e307.json``, ``frequencies_1e307.json``,
    ``couplings_1e307.json`` and ``r3_d{d}.json``."""
    out = []
    for path in sorted(MODELS.glob("*.json")):
        per_model = [["validate"], ["synthesize"], ["build"], ["spectrum"], ["certify"], ["certify", "--seed", "3"]]
        per_model += [[cmd, "--rho0", s] for cmd in ("evolve", "steady-state") for s in STATES]
        out += [(" ".join([path.stem, cmd[0], *cmd[1:]]), [cmd[0], str(path), *cmd[1:]]) for cmd in per_model]
    out.append(("qubit_driven evolve --rho0 FILE", ["evolve", str(MODELS / "qubit_driven.json"),
                                                    "--rho0", str(tmp / "plus.json")]))
    out += [(f"qubit_driven {cmd} --grid 0:1e200:3", [cmd, str(MODELS / "qubit_driven.json"), "--grid", "0:1e200:3"])
            for cmd in ("evolve", "certify")]
    out.append(("qubit_dephasing h_bar*1e300 validate", ["validate", str(tmp / "huge_hbar.json")]))
    out.append(("qutrit_thermal kappa=5e307 build", ["build", str(tmp / "kappa_5e307.json")]))
    out += [(f"qubit_driven frequencies*1e307 {cmd}", [cmd, str(tmp / "frequencies_1e307.json")])
            for cmd in ("validate", "build")]
    out.append(("qutrit_thermal couplings*1e307 build", ["build", str(tmp / "couplings_1e307.json")]))
    out.append(("qutrit_thermal certify --pairs 5 --grid 0:40:7",
                ["certify", str(MODELS / "qutrit_thermal.json"), "--pairs", "5", "--grid", "0:40:7"]))
    out.append(("r3_d10 build", ["build", str(tmp / "r3_d10.json")]))
    out.append(("r3_d6 evolve --rho0 plus", ["evolve", str(tmp / "r3_d6.json"), "--rho0", "plus"]))
    return out


def run(src, argv):
    """Exit code, stdout and stderr of ``python -m qmme argv`` with ``src`` on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("QMME_")}
    env["PYTHONPATH"] = str(Path(src).resolve())
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    done = subprocess.run([sys.executable, "-m", "qmme", *argv], capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


def _leaves(doc, path=""):
    """(field, value) of every scalar of a parsed JSON document, list indices dropped."""
    if isinstance(doc, dict):
        for k in sorted(doc):
            yield from _leaves(doc[k], f"{path}.{k}" if path else k)
    elif isinstance(doc, list):
        for v in doc:
            yield from _leaves(v, path + "[]")
    else:
        yield path, doc


def _values(text):
    """(field, value) of every scalar of a JSON document or of every cell of a CSV
    table, its column the field; None for other text."""
    try:
        return list(_leaves(json.loads(text)))
    except ValueError:
        rows = list(csv.reader(io.StringIO(text)))
    try:
        return [(name, float(v)) for row in rows[1:] for name, v in zip(rows[0], row, strict=True)]
    except (IndexError, ValueError):
        return None


def _fields(a, b):
    """'field: N changed, largest X' lines for the values of two (field, value) lists with the same fields."""
    changed = {}
    for (field, x), (_, y) in zip(a, b):
        if x == y and type(x) is type(y):
            continue
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        count, largest = changed.get(field, (0, 0.0))
        changed[field] = count + 1, max(largest, abs(x - y)) if numeric else math.inf  # inf: not a number
    return [f"  {field}: {count} changed, largest {'(not a number)' if largest == math.inf else f'{largest:.3g}'}"
            for field, (count, largest) in changed.items()]


def compare(parent, child):
    """Report lines for two (exit code, stdout, stderr) results: ["identical"] when they agree."""
    if parent == child:
        return ["identical"]
    lines = [f"  exit {parent[0]} -> {child[0]}"]
    if parent[2] != child[2]:
        lines += [f"  stderr parent: {parent[2]!r}", f"  stderr child:  {child[2]!r}"]
    if parent[1] != child[1]:
        a, b = _values(parent[1]), _values(child[1])
        if a is None or b is None:
            lines.append("  stdout differs, and is neither JSON nor CSV")
        elif [f for f, _ in a] != [f for f, _ in b]:
            lines.append(f"  stdout fields differ: {len(a)} values -> {len(b)}")
        else:
            lines += _fields(a, b) or ["  stdout differs in layout only"]
    return lines


def _write_scaled_models(src, out_dir):
    """The seeded r = 3 models at d = 6 and 10, built by the tree ``src`` and
    saved as ``out_dir/r3_d{d}.json``."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]\n"
            "from test_generator import scaled_r3_models\n"
            "from qmme.io import save_model\n"
            "for model in scaled_r3_models(1, dims=(6, 10)):\n"
            "    save_model(model, f'{sys.argv[3]}/r3_d{model.dim}.json')\n")
    subprocess.run([sys.executable, "-c", code, str(Path(src).resolve()), str(TESTS), str(out_dir)], check=True)


def _write_extreme_models(out_dir):
    """``qubit_dephasing`` with ``h_bar`` times 1e300, ``qutrit_thermal`` with ``kappa``
    5e307, ``qubit_driven`` with its frequencies times 1e307 and ``qutrit_thermal`` with
    its couplings times 1e307, as ``out_dir/huge_hbar.json``, ``out_dir/kappa_5e307.json``,
    ``out_dir/frequencies_1e307.json`` and ``out_dir/couplings_1e307.json``."""
    doc = json.loads((MODELS / "qubit_dephasing.json").read_text())
    doc["h_bar"] = [[[1e300 * part for part in entry] for entry in row] for row in doc["h_bar"]]
    (out_dir / "huge_hbar.json").write_text(json.dumps(doc))
    doc = json.loads((MODELS / "qutrit_thermal.json").read_text())
    doc["bath"]["params"]["kappa"] = 5e307
    (out_dir / "kappa_5e307.json").write_text(json.dumps(doc))
    doc = json.loads((MODELS / "qubit_driven.json").read_text())
    doc["frequencies"] = [1e307 * w for w in doc["frequencies"]]
    (out_dir / "frequencies_1e307.json").write_text(json.dumps(doc))
    doc = json.loads((MODELS / "qutrit_thermal.json").read_text())
    doc["couplings"] = [[[[1e307 * part for part in entry] for entry in row] for row in s] for s in doc["couplings"]]
    (out_dir / "couplings_1e307.json").write_text(json.dumps(doc))


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent_src, child_src, labels = argv[0], argv[1], set(argv[2:])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        todo = [(label, cmd) for label, cmd in calls(tmp) if not labels or label in labels]
        (tmp / "plus.json").write_text(json.dumps([[[0.5, 0.0], [0.5, 0.0]]] * 2))
        _write_extreme_models(tmp)
        if any(label.startswith("r3_") for label, _ in todo):
            _write_scaled_models(child_src, tmp)
        differ = 0
        for label, cmd in todo:
            lines = compare(run(parent_src, cmd), run(child_src, cmd))
            differ += lines != ["identical"]
            print(f"{label}: {lines[0]}" if len(lines) == 1 else "\n".join([f"{label}:", *lines]), flush=True)
    print(f"{len(todo) - differ} of {len(todo)} calls identical")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
