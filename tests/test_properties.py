"""Property tests over the CLI's whole accepted numeric domain.

Parameters span magnitudes 1e-300 to 1e300 and states up to n = 400.  Such
inputs may give a config error, infeasible parameters or a numeric failure,
but ``main`` must map each to its exit code with one stderr line, and never
raise.  ``spectrum`` and ``sweep`` run on the coarse grids 20 and 40 with at
most four levels or three swept values, which keeps each example fast.
``verify`` is left out: a failing identity exits 3 by design with its whole
report on stdout and nothing on stderr.
"""

import contextlib
import io
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from swanson.cli import main  # noqa: E402

magnitude = st.builds(lambda m, e: repr(m * 10.0 ** e),
                      st.floats(1.0, 9.99), st.integers(-300, 299))
signed = st.builds(lambda sign, m: sign + m, st.sampled_from(["", "-"]),
                   magnitude)


def _flags(names, values):
    return [token for pair in zip(names, values) for token in pair]


forward = st.lists(magnitude, min_size=3, max_size=3).map(
    lambda v: ["solve"] + _flags(["--omega-bar", "--rho-q", "--d"], v))
inverse = st.lists(signed, min_size=3, max_size=3).map(
    lambda v: ["solve", "--mode", "inverse"]
    + _flags(["--omega", "--alpha", "--beta"], v))
wavefunctions = st.builds(
    lambda point, side, n, zs: (
        ["wavefunctions", "--side", side, "--n-list", str(n),
         "--z-grid", ",".join(zs)]
        + _flags(["--omega-bar", "--rho-q", "--d"], point)),
    st.lists(magnitude, min_size=3, max_size=3),
    st.sampled_from(["plus", "minus"]), st.integers(0, 400),
    st.lists(magnitude, min_size=1, max_size=3))

coarse = ["--grids", "20,40"]
spectrum = st.builds(
    lambda point, n_max: (["spectrum", "--n-max", str(n_max)] + coarse
                          + _flags(["--omega-bar", "--rho-q", "--d"], point)),
    st.lists(magnitude, min_size=3, max_size=3), st.integers(0, 3))
sweep = st.builds(
    lambda point, param, lo, hi, steps: (
        ["sweep", "--param", param, f"--range={lo}:{hi}", "--steps",
         str(steps)] + coarse
        + _flags(["--omega-bar", "--rho-q", "--d"], point)),
    st.lists(magnitude, min_size=3, max_size=3),
    st.sampled_from(["rho_q", "d", "omega_bar"]), signed, signed,
    st.integers(0, 3))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.one_of(forward, inverse, wavefunctions, spectrum, sweep))
def test_every_input_ends_in_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert not caught  # a warning would be one more stderr line
    if code != 0:
        text = err.getvalue()
        assert text.count("\n") == 1 and text.endswith("\n")
