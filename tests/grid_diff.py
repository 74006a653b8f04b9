"""Byte-identity check of two source trees over the report grid and the certify requests.

    python tests/grid_diff.py PARENT CHANGE

Each tree runs in a fresh process, with its own ``src`` first on the path: ``verify`` over
(n, rank) = (1,1), (2,1), (2,2), (3,1), (3,2), (4,4), (8,3) x 30 trials and (64,4) x 5, at seeds
7 and 1009, under ``Tolerance()`` and ``Tolerance(0.0)``, and the ``reproduce`` body; ``qubounds saturate``
for both targets on each pair file of :func:`saturate_pairs`, which this process writes once for both trees; and the
certify section, :func:`certify_runs`.  The script prints each report body's and summary CSV's SHA-256 (first 16 hex
digits) in both trees, lists every leaf value that moved with its relative change, and closes with a count of the
flipped ``saturated`` flags per run and per bound; a ``saturate`` run is compared by its stdout, stderr and exit
code.  A report body or CSV, or a ``saturate`` run, that moved needs a new artifact version: the script reads
``artifact_version`` from each tree's report bodies (a ``saturate`` record carries none), and exits 1 when any of
them differs under one version; where the version moved, it prints the move and exits 0.  Two runs of one tree share
their version, so there any difference exits 1.  No artifact version covers the certify section's values, so any
difference there exits 1.  It uses only the standard library, NumPy and ``tests/helpers.py``.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import enum
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

GRID = (((1, 1), 30), ((2, 1), 30), ((2, 2), 30), ((3, 1), 30), ((3, 2), 30), ((4, 4), 30), ((8, 3), 30),
        ((64, 4), 5))
SEEDS = (7, 1009)
SATURATE = "saturate"  # the name of every saturate run starts so
CERTIFY = "certify"  # and that of every certify run
CERTIFY_SEEDS = (7, 1009)
_MISSING = object()


def _hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def saturate_pairs() -> dict:
    """Each ``saturate`` pair file's stem -> (A, B): seeded (G + G^dagger)/2 pairs at n = 1 (which no construction
    takes), 2, 3 and 8; the CI's 3 x 3 pair; and a 3 x 3 pair whose A has e1 as an eigenvector (dev(A) = 0 in e1)."""
    pairs = {f"seeded-n{n}": (_hermitian(rng, n), _hermitian(rng, n))
             for n, rng in ((n, np.random.default_rng(100 + n)) for n in (1, 2, 3, 8))}
    pairs["ci-3x3"] = (np.array([[1, 1, 0], [1, 0, 1], [0, 1, -1]]), np.array([[0, 1j, 1], [-1j, 2, 0], [1, 0, 0]]))
    a, b = (_hermitian(np.random.default_rng(seed), 3) for seed in (110, 111))
    a[0, 1:] = a[1:, 0] = 0.0
    pairs["e1-eigenvector"] = (a, b)
    return pairs


def write_pair_files(folder: Path) -> None:
    """Write each pair of :func:`saturate_pairs` into ``folder`` as ``STEM.json``, in ``saturate``'s format."""
    for stem, pair in saturate_pairs().items():
        matrices = {key: {"rows": len(m), "cols": len(m), "re": np.real(m).tolist(), "im": np.imag(m).tolist()}
                    for key, m in zip("ab", pair)}
        (folder / f"{stem}.json").write_text(json.dumps(matrices), encoding="utf-8")


def saturate_runs(folder: Path) -> dict:
    """Each ``saturate`` run's name -> [stdout, stderr, exit code], from ``qubounds.cli.main`` on the path, for both
    targets on each pair file in ``folder``."""
    from qubounds.cli import main

    runs = {}
    for path in sorted(folder.glob("*.json")):
        for target in ("mp3", "mp6"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["saturate", str(path), "--target", target])
            runs[f"{SATURATE} --target {target} {path.stem}"] = [out.getvalue(), err.getvalue(), code]
    return runs


def _hexed(x):
    """``x`` as JSON with every float written by ``float.hex``: a complex as its two parts, an array as nested lists,
    a dataclass as a dict of its fields, an enum as its value, and an error as its type and message."""
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, complex):
        return [x.real.hex(), x.imag.hex()]
    if isinstance(x, np.ndarray):
        return _hexed(x.tolist())
    if isinstance(x, (list, tuple)):
        return [_hexed(v) for v in x]
    if isinstance(x, dict):
        return {k: _hexed(v) for k, v in x.items()}
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, Exception):
        return [type(x).__name__, str(x)]
    if dataclasses.is_dataclass(x):
        return {f.name: _hexed(getattr(x, f.name)) for f in dataclasses.fields(x)}
    return x


def certify_runs() -> dict:
    """Each certify run's name -> its results as :func:`_hexed` JSON, from the ``qubounds`` on the path: every
    request of ``helpers.certify_requests`` at each of ``CERTIFY_SEEDS`` (a certificate, or a constructed pair and
    its check, or the error raised), and each mixed kind's matrix-built state's ``factor`` and ``weights``."""
    from qubounds import DensityMatrix, QuboundsError
    from helpers import certify_requests

    runs = {}
    for seed in CERTIFY_SEEDS:
        for kind, n, raw, request in certify_requests(seed):
            name = f"{CERTIFY} seed={seed} {kind} n={n}"
            try:
                runs[name] = json.dumps(_hexed(request()))
            except QuboundsError as exc:
                runs[name] = json.dumps(_hexed(exc))
            if kind in ("mixed", "schrodinger"):
                rho = DensityMatrix(raw[2])
                runs[f"{name} state"] = json.dumps(_hexed({"factor": rho.factor, "weights": rho.weights}))
    return runs


def grid_bodies() -> dict:
    """Each run's name -> [report body, summary CSV], from the ``qubounds`` on the path."""
    from qubounds import SampleConfig, Tolerance
    from qubounds.reporting import (canonical_json, report_body_dict, run_reproduction, run_verification_suite,
                                    summary_csv)

    bodies = {}
    for (n, rank), count in GRID:
        for seed in SEEDS:
            for tol in (Tolerance(), Tolerance(0.0)):
                report = run_verification_suite(SampleConfig(n, rank, seed, count), tol)
                name = f"verify n={n} rank={rank} trials={count} seed={seed} eps={tol.eps!r}"
                bodies[name] = [canonical_json(report_body_dict(report)), summary_csv(report)]
    report = run_reproduction()
    bodies["reproduce"] = [canonical_json(report_body_dict(report)), summary_csv(report)]
    return bodies


def tree_bodies(tree: str, folder: Path) -> dict:
    """:func:`grid_bodies` and :func:`saturate_runs` on ``folder`` of ``tree``, run in a fresh process with
    ``tree/src`` first on ``PYTHONPATH``."""
    src = Path(tree).resolve() / "src"
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    child = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--bodies", str(src), str(folder)],
                           env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    if child.returncode != 0:
        raise SystemExit(f"grid run failed in {tree}:\n{child.stderr}")
    return json.loads(child.stdout)


def artifact_version(bodies: dict) -> str:
    """The ``artifact_version`` that the report bodies of :func:`grid_bodies` name, ``/``-joined if they differ."""
    return "/".join(sorted({json.loads(run[0])["manifest"]["artifact_version"] for name, run in bodies.items()
                            if not name.startswith((SATURATE, CERTIFY))}))


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def leaf_diff(old, new, path: str = "") -> list:
    """One line per leaf where two parsed bodies differ: a moved number with its relative change, any other
    changed value, or an entry that one side lacks.  Leaves are equal when their reprs are, so a signed zero
    or an int that became a float counts as moved."""
    if isinstance(old, dict) and isinstance(new, dict):
        keys = sorted(old.keys() | new.keys())
        pairs = [(f"{path}.{k}" if path else str(k), old.get(k, _MISSING), new.get(k, _MISSING)) for k in keys]
    elif isinstance(old, list) and isinstance(new, list):
        pad = [_MISSING] * abs(len(old) - len(new))
        pairs = [(f"{path}[{i}]", o, x) for i, (o, x) in enumerate(zip(old + pad, new + pad))]
    else:
        if repr(old) == repr(new):
            return []
        if _number(old) and _number(new):
            change = abs(new - old) / abs(old) if old else (0.0 if new == old else math.inf)
            return [f"{path}: {old!r} -> {new!r} (relative change {change:.3g})"]
        return [f"{path}: {old!r} -> {new!r}"]
    lines = []
    for where, o, x in pairs:
        if o is _MISSING or x is _MISSING:
            lines.append(f"{where}: missing in {'parent' if o is _MISSING else 'change'}")
        else:
            lines.extend(leaf_diff(o, x, where))
    return lines


def flip_tally(lines: list) -> collections.Counter:
    """Per bound, the ``saturated`` leaves that flipped among :func:`leaf_diff`'s lines."""
    return collections.Counter(path.split(".")[-2] for path, _, change in (line.partition(": ") for line in lines)
                               if path.endswith(".saturated") and change in ("True -> False", "False -> True"))


def _counts(tally: collections.Counter) -> str:
    return ", ".join(f"{bound} {count}" for bound, count in sorted(tally.items()))


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _saturate_diff(run: list, new_run: list) -> list:
    """The lines that say how a ``saturate`` run moved: :func:`leaf_diff` of its stdout records where both are
    JSON, else both stdouts; both stderrs and exit codes where they differ."""
    (out, err, code), (new_out, new_err, new_code) = run, new_run
    try:
        lines = leaf_diff(json.loads(out), json.loads(new_out)) if out != new_out else []
    except ValueError:
        lines = [f"stdout: {out!r} -> {new_out!r}"]
    return lines + ([f"stderr: {err!r} -> {new_err!r}"] if err != new_err else []) + (
        [f"exit code: {code} -> {new_code}"] if code != new_code else [])


def main(argv: list) -> int:
    if len(argv) == 3 and argv[0] == "--bodies":
        import qubounds

        if Path(qubounds.__file__).resolve().parent.parent != Path(argv[1]):
            raise SystemExit(f"imported {qubounds.__file__}, not the tree's {argv[1]}")
        json.dump(dict(grid_bodies(), **saturate_runs(Path(argv[2])), **certify_runs()), sys.stdout)
        return 0
    if len(argv) != 2:
        raise SystemExit(__doc__)
    with tempfile.TemporaryDirectory(prefix="qubounds-pairs-") as folder:
        write_pair_files(Path(folder))
        old, new = (tree_bodies(tree, Path(folder)) for tree in argv)
    names = list(old) + [name for name in new if name not in old]
    moved, flips = 0, {}
    for name in (name for name in names if not name.startswith((SATURATE, CERTIFY))):
        (body, csv), (new_body, new_csv) = old.get(name, ["", ""]), new.get(name, ["", ""])
        same = body == new_body and csv == new_csv
        moved += not same
        print(f"{'same' if same else 'DIFFERS'}  body {_hash(body)} {_hash(new_body)}"
              f"  csv {_hash(csv)} {_hash(new_csv)}  {name}")
        if body != new_body and body and new_body:
            lines = leaf_diff(json.loads(body), json.loads(new_body))
            for line in lines:
                print(f"    {line}")
            if tally := flip_tally(lines):
                flips[name] = tally
    saturate = [name for name in names if name.startswith(SATURATE)]
    saturate_moved = 0
    for name in saturate:
        (out, err, code), (new_out, new_err, new_code) = old.get(name, ["", "", None]), new.get(name, ["", "", None])
        same = [out, err, code] == [new_out, new_err, new_code]
        saturate_moved += not same
        print(f"{'same' if same else 'DIFFERS'}  stdout {_hash(out)} {_hash(new_out)}  stderr {_hash(err)} "
              f"{_hash(new_err)}  exit {code} {new_code}  {name}")
        if not same and name in old and name in new:
            for line in _saturate_diff(old[name], new[name]):
                print(f"    {line}")
    print(f"{saturate_moved} of {len(saturate)} saturate runs differ")
    certify = [name for name in names if name.startswith(CERTIFY)]
    certify_moved = 0
    for name in certify:
        run, new_run = old.get(name, ""), new.get(name, "")
        certify_moved += run != new_run
        print(f"{'same' if run == new_run else 'DIFFERS'}  {_hash(run)} {_hash(new_run)}  {name}")
        if run != new_run and run and new_run:
            for line in leaf_diff(json.loads(run), json.loads(new_run)):
                print(f"    {line}")
    if certify:
        print(f"{certify_moved} of {len(certify)} certify runs differ")
    total = sum(flips.values(), collections.Counter())
    print(f"saturated flags flipped: {total.total()}")
    for name, tally in flips.items():
        print(f"    {name}: {_counts(tally)}")
    if total:
        print(f"    by bound: {_counts(total)}")
    print(f"{moved} of {len(names) - len(saturate) - len(certify)} runs differ")
    if certify_moved:
        print("certify values moved, which no artifact version covers")
        return 1
    if not moved and not saturate_moved:
        return 0
    old_version, new_version = artifact_version(old), artifact_version(new)
    if old_version != new_version:
        print(f"report bytes moved with artifact_version {old_version} -> {new_version}")
        return 0
    print(f"report bytes moved, but artifact_version is {new_version} in both trees")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
