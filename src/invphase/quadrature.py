"""Composite Simpson quadrature of sampled data, in numpy alone.

:func:`simpson` and :func:`cumulative_simpson` evaluate the expressions of
``scipy.integrate.simpson`` and ``scipy.integrate.cumulative_simpson``
(scipy 1.17) for samples at given points ``x``, with the same array
shapes and the same order of operations, so their results are
bit-identical.  They exist because ``scipy.integrate`` imports
``scipy.special`` and ``scipy.optimize``, which cost more time than the
rest of ``import invphase``.

``x`` is one-dimensional, as long as ``y`` along ``axis`` and strictly
increasing.
"""

from __future__ import annotations

import numpy as np

__all__ = ["simpson", "cumulative_simpson"]


def _along(nd: int, axis: int, index) -> tuple:
    """Index tuple selecting ``index`` along ``axis`` of an ``nd``-D array."""
    out = [slice(None)] * nd
    out[axis] = index
    return tuple(out)


def _basic_simpson(y, stop, x, axis):
    """Simpson's rule over the interval pairs ``[0, stop]`` of ``y``,
    allowing unequal spacings in ``x``."""
    nd = y.ndim
    slice0 = _along(nd, axis, slice(0, stop, 2))
    slice1 = _along(nd, axis, slice(1, stop + 1, 2))
    slice2 = _along(nd, axis, slice(2, stop + 2, 2))
    h = np.diff(x, axis=axis)
    h0 = h[slice0].astype(float, copy=False)
    h1 = h[slice1].astype(float, copy=False)
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = np.true_divide(h0, h1, out=np.zeros_like(h0), where=h1 != 0)
    tmp = hsum / 6.0 * (
        y[slice0] * (2.0 - np.true_divide(1.0, h0divh1,
                                          out=np.zeros_like(h0divh1),
                                          where=h0divh1 != 0))
        + y[slice1] * (hsum * np.true_divide(hsum, hprod,
                                             out=np.zeros_like(hsum),
                                             where=hprod != 0))
        + y[slice2] * (2.0 - h0divh1))
    return np.sum(tmp, axis=axis)


def simpson(y, *, x, axis: int = -1):
    """Integral of the samples ``y`` at the points ``x`` along ``axis`` by
    the composite Simpson rule (bits of ``scipy.integrate.simpson``).

    An even point count integrates all but the last interval by Simpson's
    rule and adds Cartwright's correction for the last one; two points are
    the trapezoid.
    """
    y = np.asarray(y)
    nd = y.ndim
    n = y.shape[axis]
    shape = [1] * nd
    shape[axis] = n
    x = np.asarray(x).reshape(shape)
    if n % 2:
        return _basic_simpson(y, n - 2, x, axis)
    last, before, third = (_along(nd, axis, k) for k in (-1, -2, -3))
    if n == 2:
        return 0.0 + (0.0 + 0.5 * (x[last] - x[before])
                      * (y[last] + y[before]))
    result = _basic_simpson(y, n - 3, x, axis)
    diffs = np.float64(np.diff(x, axis=axis))
    h = [np.squeeze(diffs[_along(nd, axis, slice(-2, -1))], axis=axis),
         np.squeeze(diffs[_along(nd, axis, slice(-1, None))], axis=axis)]
    den = 6 * (h[1] + h[0])
    alpha = np.true_divide(2 * h[1] ** 2 + 3 * h[0] * h[1], den,
                           out=np.zeros_like(den), where=den != 0)
    den = 6 * h[0]
    beta = np.true_divide(h[1] ** 2 + 3.0 * h[0] * h[1], den,
                          out=np.zeros_like(den), where=den != 0)
    den = 6 * h[0] * (h[0] + h[1])
    eta = np.true_divide(1 * h[1] ** 3, den,
                         out=np.zeros_like(den), where=den != 0)
    result += alpha * y[last] + beta * y[before] - eta * y[third]
    result += 0.0
    return result


def _simpson_subintervals(y, dx):
    """Simpson integral over each first interval of consecutive point
    triples along the last axis (Cartwright's eqn. (8)); reversed inputs
    give the second intervals."""
    x21 = dx[..., :-1]
    x32 = dx[..., 1:]
    f1 = y[..., :-2]
    f2 = y[..., 1:-1]
    f3 = y[..., 2:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * f1 + coeff2 * f2 + coeff3 * f3)


def cumulative_simpson(y, *, x, axis: int = -1) -> np.ndarray:
    """Running integral of the samples ``y`` at the points ``x`` along
    ``axis``, starting at 0 (bits of ``scipy.integrate.cumulative_simpson``
    with ``initial=0``); fewer than three points use the trapezoid."""
    y = np.asarray(y)
    if not np.issubdtype(y.dtype, np.inexact):
        y = y.astype(float)
    x = np.asarray(x, dtype=float)
    first = list(y.shape)
    first[axis] = 1
    y = np.swapaxes(y, axis, -1)
    if y.shape[-1] < 3:
        res = np.cumsum(np.diff(x) * (y[..., 1:] + y[..., :-1]) / 2.0,
                        axis=-1)
    else:
        dx = np.diff(np.broadcast_to(x, y.shape), axis=-1)
        h1 = _simpson_subintervals(y, dx)
        h2 = np.flip(_simpson_subintervals(np.flip(y, axis=-1),
                                           np.flip(dx, axis=-1)), axis=-1)
        sub = np.empty(h1.shape[:-1] + (h1.shape[-1] + 1,),
                       dtype=np.result_type(y, dx))
        sub[..., :-1:2] = h1[..., ::2]
        sub[..., 1::2] = h2[..., ::2]
        sub[..., -1] = h2[..., -1]
        res = np.cumsum(sub, axis=-1)
    initial = np.swapaxes(np.broadcast_to(np.zeros(()), first), axis, -1)
    res += initial
    res = np.concatenate((initial, res), axis=-1)
    return np.swapaxes(res, -1, axis)
