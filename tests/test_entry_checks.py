"""The entry checks on bad array arguments: each raises a typed QuboundsError, and nothing warns first.

The named cases are the known gaps: entries that are not numbers, ragged rows, and finite entries
whose norm or modulus overflows.  The generated suite draws the array arguments of every entry
that takes one (wrong, ragged and empty shapes; float, complex, int, bool, object and string
dtypes; NaN and inf; finite entries whose norms overflow or underflow) under the profile pinned
in ``conftest.py``: each call returns or raises a QuboundsError, and no RuntimeWarning escapes.
A second generated suite draws bad pair files for ``qubounds saturate``: each exits 1 with one
``error:`` line and writes no ``--out`` file.  A bad configuration value (``Tolerance``, ``SampleConfig``)
is a plain ValueError where it is constructed.
"""

import io
import json
import math
import warnings
from contextlib import redirect_stderr

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qubounds import (DensityMatrix, InvalidInput, NotOrthonormal, Observable, PureState, QuboundsError, SampleConfig,
                      Tolerance, complex_dependence, phase_dependence, psd_power, run_verification_suite,
                      unitary_completion)
from qubounds.cli import main
from qubounds.reporting import dumps_report

NOT_NUMBERS = {
    "observable-strings": lambda: Observable([["a", "b"], ["c", "d"]]),
    "state-strings": lambda: PureState(["x", "y"]),
    "factor-strings": lambda: DensityMatrix.from_factor([["q"], ["r"]]),
    "phase-detector-string": lambda: phase_dependence(["a", 0], [1, 0]),
    "completion-string": lambda: unitary_completion([["a", 1]]),
    "observable-ragged": lambda: Observable([[1, 2], [3]]),
    "observable-dict": lambda: Observable([[{}, 0], [0, 1]]),
}


@pytest.mark.parametrize("call", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
def test_an_entry_that_is_not_a_number_is_invalid_input(call):
    # Entries coerce to complex in one place, which names the input; the error is still a ValueError.
    with pytest.raises(InvalidInput, match="is not an array of numbers") as info:
        call()
    assert isinstance(info.value, ValueError)


OVERFLOWS = {
    "observable": (lambda: Observable(np.full((2, 2), 1e308)), InvalidInput,
                   "^observable has a non-finite Frobenius norm$"),
    "density-matrix": (lambda: DensityMatrix(np.full((2, 2), 1e308)), InvalidInput,
                       "^density matrix has a non-finite Frobenius norm$"),
    "state": (lambda: PureState([1e200, 1e200]), InvalidInput, "^state vector norm inf is not 1"),
    "completion": (lambda: unitary_completion([[1e200, 1e200]]), NotOrthonormal, "by inf$"),
    # |phi|^2 = inf - inf: a Gram deviation that is not a number fails the test too.
    "completion-nan-gram": (lambda: unitary_completion([[1e300, 1e300], [1e300 + 1e300j, -1e300 - 1e300j]]),
                            NotOrthonormal, "by nan$"),
}


@pytest.mark.parametrize("call, error, message", OVERFLOWS.values(), ids=OVERFLOWS)
def test_an_overflowing_norm_raises_its_error_with_no_warning(call, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            call()


# Magnitudes whose squares overflow or underflow, NaN and inf, beside ordinary values.
SPECIAL = st.sampled_from([0.0, 1.0, -0.5, 1e-320, 1e-170, 1.5e154, 1e200, 1e308, -1e308,
                           np.nan, np.inf, -np.inf])
FLOATS = st.one_of(SPECIAL, st.floats(allow_nan=True, allow_infinity=True))
COMPLEX = st.one_of(st.builds(complex, FLOATS, FLOATS), st.complex_numbers(allow_nan=True, allow_infinity=True))
OBJECTS = st.one_of(st.none(), st.text(max_size=3), st.integers(-10**400, 10**400), FLOATS, COMPLEX,
                    st.lists(FLOATS, max_size=2), st.dictionaries(st.text(max_size=1), FLOATS, max_size=1))
SHAPES = st.one_of(st.integers(0, 3).map(lambda n: (n, n)), st.integers(0, 3).map(lambda n: (n,)),
                   st.integers(0, 3).map(lambda n: (n, 1)), hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                                           max_side=3))


@st.composite
def arrays(draw, shape=None):
    """An array argument: an ndarray of a drawn dtype and shape, or ragged nested lists."""
    if shape is None and draw(st.integers(0, 9)) == 0:
        return draw(st.lists(st.lists(FLOATS, max_size=3), min_size=2, max_size=3))
    shape = draw(SHAPES) if shape is None else shape
    kind = draw(st.sampled_from(("float", "complex", "int", "bool", "object", "string")))
    if kind == "float":
        return draw(hnp.arrays(float, shape, elements=FLOATS))
    if kind == "complex":
        return draw(hnp.arrays(complex, shape, elements=COMPLEX))
    if kind == "int":
        return draw(hnp.arrays(np.int64, shape))
    if kind == "bool":
        return draw(hnp.arrays(bool, shape))
    if kind == "object":
        return draw(hnp.arrays(object, shape, elements=OBJECTS))
    return draw(hnp.arrays("U4", shape, elements=st.text(alphabet="0123456789.-+eijnaf ", max_size=4)))


@st.composite
def pairs(draw):
    """Two array arguments, of one shape where the first is an ndarray, to reach past the shape check."""
    x = draw(arrays())
    return x, draw(arrays(np.shape(x) if isinstance(x, np.ndarray) and draw(st.booleans()) else None))


def _returns_or_raises_a_qubounds_error(call, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            call(*args)
        except QuboundsError:
            pass


ENTRIES = {"Observable": Observable, "hermitian_part": Observable.hermitian_part, "PureState": PureState,
           "DensityMatrix": DensityMatrix, "from_factor": DensityMatrix.from_factor,
           "unitary_completion": unitary_completion}


# Half the profile's examples: eight generated tests share Tier-1's 2 s budget for this suite.
@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES)
@settings(max_examples=50)
@given(x=arrays())
@example(x=np.array([["a", "b"], ["c", "d"]]))
@example(x=[[1.0, 2.0], [3.0]])
@example(x=np.full((2, 2), 1e308))
@example(x=np.array([[1e200, 1e200]]))
def test_an_entry_returns_or_raises_a_qubounds_error(entry, x):
    _returns_or_raises_a_qubounds_error(entry, x)


@pytest.mark.parametrize("detector", [phase_dependence, complex_dependence], ids=["phase", "complex"])
@settings(max_examples=50)
@given(xy=pairs())
@example(xy=(np.array(["a", "0"]), np.array([1.0, 0.0])))
@example(xy=(np.array([[1.5e308 + 1.5e308j, 0.0]]), np.array([[1.0, 0.0]])))
def test_a_detector_returns_or_raises_a_qubounds_error(detector, xy):
    _returns_or_raises_a_qubounds_error(detector, *xy)


def test_a_psd_power_that_overflows_is_invalid_input_with_no_warning():
    # 1e100 ** 4 overflows: the power of a finite PSD input is not finite, a typed error and no warning
    # first.  1e50 ** 4 is in range (1 is below the support cutoff of 1e50 INPUT_TOL, so it counts as 0).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="^matrix power 4.0 contains non-finite entries$"):
            psd_power(np.diag([1e100, 1.0]), 4.0)
        np.testing.assert_allclose(psd_power(np.diag([1e50, 1.0]), 4.0), np.diag([1e200, 0.0]), rtol=1e-15, atol=0)


# A valid pair file: Pauli X and Y.  Each strategy below spoils it in one way.
PAIR = {"a": {"rows": 2, "cols": 2, "re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]},
        "b": {"rows": 2, "cols": 2, "re": [[0, 0], [0, 0]], "im": [[0, -1], [1, 0]]}}
# Stands in the payload for JSON text that json.dumps cannot write: huge integers and deep nesting.
RAW = "@raw@"
NOT_A_MATRIX = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
                         st.lists(st.integers(), max_size=2))
NOT_A_COUNT = st.one_of(NOT_A_MATRIX, st.sampled_from([2.0, 2.5, "2", True, 0, 1, 3, -2, 10**400, 1e400]))
BAD_ENTRY = st.one_of(st.sampled_from(["1", "0", "-1", "1e400", "", True, False, None, {}, [0],
                                       "NaN", "Infinity", "-Infinity"]),
                      st.text(max_size=3), st.booleans())
HUGE_INT = st.tuples(st.sampled_from(["", "-"]), st.integers(309, 420)).map(lambda s: s[0] + "1" + "0" * s[1])
RAW_ENTRY = st.one_of(HUGE_INT, st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400"]),
                      st.integers(2, 100_000).map(lambda depth: "[" * depth + "1" + "]" * depth))


@st.composite
def bad_pair_files(draw):
    """The text of a pair file spoilt in one way: a key missing, a value that is not an object, a count that is
    not the shape's, a ragged or resized payload, an entry that is not a finite JSON number, or deep nesting."""
    payload = json.loads(json.dumps(PAIR))
    side, key = draw(st.sampled_from("ab")), draw(st.sampled_from(["rows", "cols", "re", "im"]))
    matrix, part = payload[side], payload[side][draw(st.sampled_from(["re", "im"]))]
    row = part[draw(st.integers(0, 1))]
    how = draw(st.sampled_from(["missing", "not-object", "count", "ragged", "resized", "entry", "deep"]))
    raw = draw(RAW_ENTRY)
    if how == "missing":
        if draw(st.booleans()):
            del matrix[key]
        else:
            del payload[side]
    elif how == "not-object":
        value = draw(NOT_A_MATRIX)
        target = draw(st.sampled_from(["payload", "matrix", "part"]))
        if target == "payload":
            payload = value
        elif target == "matrix":
            payload[side] = value
        else:
            matrix[key if key in ("re", "im") else "re"] = value
    elif how == "count":
        count = draw(NOT_A_COUNT.filter(lambda c: not (type(c) is int and c == 2)))
        matrix[draw(st.sampled_from(["rows", "cols"]))] = count
    elif how == "ragged":  # one row an entry longer or shorter than the other
        if draw(st.booleans()):
            row.append(0)
        else:
            row.pop()
    elif how == "resized":  # a third row, or a third entry in every row
        if draw(st.booleans()):
            part.append([0, 0])
        else:
            for r in part:
                r.append(0)
    elif how == "entry":
        row[draw(st.integers(0, 1))] = RAW if draw(st.booleans()) else draw(BAD_ENTRY)
    else:  # the whole payload nested past the recursion limit, as arrays or as objects
        depth = draw(st.integers(1_500, 100_000))
        payload, raw = RAW, "[" * depth + "]" * depth if draw(st.booleans()) else '{"a": ' * depth + "0" + "}" * depth
    return json.dumps(payload).replace(json.dumps(RAW), raw)


def _saturate_a_bad_pair_file(tmp_path_factory, text, target):
    """Run ``saturate`` on the pair file ``text``: exit code 1, one ``error:`` line on stderr, nothing raised
    (so no traceback), no warning, and no --out file."""
    folder = tmp_path_factory.mktemp("pair", numbered=True)
    path, out = folder / "pair.json", folder / "out.json"
    path.write_text(text)
    stderr = io.StringIO()
    with warnings.catch_warnings(), redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main(["saturate", str(path), "--target", target, "--out", str(out)])
    lines = stderr.getvalue().splitlines()
    assert (code, len(lines), lines[0].startswith("error: "), out.exists()) == (1, 1, True, False), lines


BAD_PAIR_FILES = {
    "huge-int": json.dumps(PAIR).replace("1]", str(10**400) + "]", 1),
    "deep": json.dumps(dict(PAIR, a=dict(PAIR["a"], re=RAW))).replace(json.dumps(RAW), "[" * 10**5 + "]" * 10**5),
    "strings": json.dumps(dict(PAIR, a=dict(PAIR["a"], re=[["1", "0"], ["0", "-1"]]))),
    "bools": json.dumps(dict(PAIR, a=dict(PAIR["a"], re=[[False, True], [True, False]]))),
    "empty": json.dumps(dict(PAIR, a={"rows": 0, "cols": 0, "re": [], "im": []})),
    "infinite-im": json.dumps(dict(PAIR, b=dict(PAIR["b"], im=[[0, -1e400], [1e400, 0]]))),
}


@pytest.mark.parametrize("text", BAD_PAIR_FILES.values(), ids=BAD_PAIR_FILES)
def test_saturate_rejects_a_named_bad_pair_file_in_one_line(tmp_path_factory, text):
    # An int beyond float range, nesting past the recursion limit, and entries that are strings or bools
    # (which float() would take as numbers) are each a usage error, not a traceback or a written report.
    _saturate_a_bad_pair_file(tmp_path_factory, text, "mp3")


@settings(max_examples=60)
@given(text=bad_pair_files(), target=st.sampled_from(["mp3", "mp6"]))
def test_saturate_rejects_a_generated_bad_pair_file_in_one_line(tmp_path_factory, text, target):
    _saturate_a_bad_pair_file(tmp_path_factory, text, target)


BAD_CONFIGS = {
    "float-dimension": lambda: SampleConfig(2.5, 1, 0, 1),
    "float-rank": lambda: SampleConfig(2, 1.0, 0, 1),
    "float-count": lambda: SampleConfig(2, 1, 0, 3.0),
    "bool-dimension": lambda: SampleConfig(True, 1, 0, 1),
    "half-seed": lambda: SampleConfig(2, 1, 0.5, 1),
    "nan-seed": lambda: SampleConfig(2, 1, math.nan, 1),
    "bool-tolerance": lambda: Tolerance(True),
    "string-tolerance": lambda: Tolerance("1e-9"),
    "huge-int-tolerance": lambda: Tolerance(10**400),
}


@pytest.mark.parametrize("call", BAD_CONFIGS.values(), ids=BAD_CONFIGS)
def test_a_bad_configuration_value_is_a_plain_value_error_where_it_enters(call):
    # Not a TypeError from inside NumPy once the sweep runs, and not a value written into a report.
    with pytest.raises(ValueError) as info:
        call()
    assert not isinstance(info.value, QuboundsError)


def test_configuration_values_are_kept_as_python_numbers():
    # NumPy integers are integers: the sweep runs and its report serialises.  A tolerance is
    # kept as a float, so Tolerance(0) is Tolerance(0.0) and writes 0.0, never true or 0.
    config = SampleConfig(2, 1, np.int64(3), np.int64(2))
    assert [type(v) for v in vars(config).values()] == [int] * 4
    assert '"count":2' in dumps_report(run_verification_suite(config, Tolerance()))
    assert Tolerance(0) == Tolerance(0.0) and type(Tolerance(np.float64(1e-9)).eps) is float
    assert '"tolerance":{"eps":0.0}' in dumps_report(run_verification_suite(SampleConfig(2, 1, 0, 1), Tolerance(0)))
