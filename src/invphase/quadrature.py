"""Composite Simpson quadrature of sampled data, in numpy alone.

:func:`cumulative_simpson` evaluates the expressions of
``scipy.integrate.cumulative_simpson`` (scipy 1.17) for samples at given
points ``x``, with the same array shapes and the same order of
operations, so its results are bit-identical.  Its last entry is the
package's Simpson total over the whole grid.  It exists because
``scipy.integrate`` imports ``scipy.special`` and ``scipy.optimize``,
which cost more time than the rest of ``import invphase``.

``x`` is one-dimensional, as long as ``y`` along ``axis`` and strictly
increasing.
"""

from __future__ import annotations

import numpy as np

__all__ = ["cumulative_simpson"]


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
