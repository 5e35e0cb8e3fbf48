import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson
from scipy.integrate import simpson as scipy_simpson

from invphase.quadrature import cumulative_simpson


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


class TestSimpsonMatchesScipy:
    """The numpy helper gives the bits of ``scipy.integrate``'s
    ``cumulative_simpson``, and its last entry, the package's Simpson
    total, agrees with ``scipy.integrate.simpson``."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
           uniform=st.booleans(), columns=st.sampled_from([None, 1, 3]),
           span=st.floats(0.1, 10.0))
    def test_bit_identical(self, n, seed, uniform, columns, span):
        rng = np.random.default_rng(seed)
        if uniform:
            x = np.linspace(0.0, span, n)
        else:
            x = np.cumsum(rng.uniform(0.05, 1.0, n)) * span
        shape = (n,) if columns is None else (n, columns)
        y = rng.normal(size=shape)
        y[rng.random(shape) < 0.1] = 0.0
        y[rng.random(shape) < 0.1] = -0.0
        axis = -1 if columns is None else 0
        running = cumulative_simpson(y, x=x, axis=axis)
        assert _same_bits(running,
                          scipy_cumulative_simpson(y, x=x, axis=axis,
                                                   initial=0))
        # relative to the integral's natural scale, (x_n - x_0) max|y|
        scale = (x[-1] - x[0]) * np.max(np.abs(y), axis=axis)
        error = np.abs(np.take(running, -1, axis=axis)
                       - scipy_simpson(y, x=x, axis=axis))
        assert np.all(error <= 1e-13 * scale)
