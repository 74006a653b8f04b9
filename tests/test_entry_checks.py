"""The entry checks on bad array arguments: each raises a typed QuboundsError, and nothing warns first.

The named cases are the known gaps: entries that are not numbers, ragged rows, and finite entries
whose norm or modulus overflows.  The generated suite draws the array arguments of every entry
that takes one (wrong, ragged and empty shapes; float, complex, int, bool, object and string
dtypes; NaN and inf; finite entries whose norms overflow or underflow) under the profile pinned
in ``conftest.py``: each call returns or raises a QuboundsError, and no RuntimeWarning escapes.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qubounds import (DensityMatrix, InvalidInput, NotOrthonormal, Observable, PureState, QuboundsError,
                      complex_dependence, phase_dependence, unitary_completion)

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
