"""Deterministic linear-algebra core for finite-dimensional quantum dynamics.

All operators live in a fixed orthonormal basis.  Inside the package they
are plain dense complex ``numpy`` arrays; :class:`OperatorMatrix` is the
read-only copy the public API hands out, and :func:`as_matrix` unwraps
either form.  Operators the package builds are Hermitian or unitary by
construction and are not checked; outside data passes the one
Hermiticity gate, :func:`require_hermitian`, where it enters.  The module
provides exactly-unitary matrix exponentials of Hermitian generators, a
deterministic Hermitian eigensolver (ascending eigenvalues, canonical
eigenvector choice inside degenerate clusters), commutator norms, and a
handful of small helpers (Hermitization, polar re-unitarization) used by
the propagation and invariant layers.

Conventions
-----------
* hbar = 1 throughout.
* ``eigh`` returns eigenvalues ascending; within a degenerate cluster the
  eigenvectors are the Gram-Schmidt orthonormalization, in index order, of
  the projections of the standard basis vectors onto the cluster eigenspace,
  and every eigenvector's largest-magnitude component (lowest index on ties)
  is made real and positive.  Equal inputs therefore give bit-identical
  output.
* ``expm_igen(A, s)`` computes ``exp(-1j*s*A)`` for Hermitian ``A`` through
  its spectral decomposition, so the result is unitary to machine precision.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NonHermitianInput,
)

__all__ = [
    "OperatorMatrix",
    "eigh",
    "expm_igen",
    "comm",
    "comm_norm",
    "eigvalsh",
    "frob",
    "hermitian_defects",
    "hermitize",
    "polar_unitary",
    "require_hermitian",
    "spectral_exp",
    "HERMITIAN_TOL",
    "TOL_FLOOR",
]

#: No tolerance parameter below this floor is accepted (requests tighter than
#: ~100x double-precision eps are meaningless for dense algebra).
TOL_FLOOR = 1e-14

#: The Hermiticity rule: a matrix passes when every entry is finite and
#: ``max|A - A^H| <= HERMITIAN_TOL * max(1, max|A|)``.
HERMITIAN_TOL = 1e-12

#: Relative gap below which adjacent eigenvalues are treated as one cluster.
_CLUSTER_GAP = 1e-9


def as_matrix(a) -> np.ndarray:
    """Square 2-D complex ndarray of an array_like or an OperatorMatrix."""
    arr = np.asarray(a.array if isinstance(a, OperatorMatrix) else a,
                     dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(
            f"expected a square matrix, got shape {arr.shape}")
    return arr


def frob(a) -> float:
    """Frobenius norm of a matrix (or OperatorMatrix)."""
    return float(np.linalg.norm(as_matrix(a)))


def hermitize(a) -> np.ndarray:
    """Hermitian part (A + A^dagger)/2 of a matrix, or of every matrix of
    a ``(..., d, d)`` stack, as a complex ndarray."""
    arr = np.asarray(a.array if isinstance(a, OperatorMatrix) else a,
                     dtype=complex)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise DimensionMismatch(
            f"expected square matrices, got shape {arr.shape}")
    return 0.5 * (arr + arr.conj().swapaxes(-1, -2))


def hermitian_defects(a: np.ndarray):
    """The Hermiticity rule applied to each matrix of a ``(..., d, d)`` stack.

    Returns ``(bad, defect, scale)``, one value per matrix:
    ``defect = max|A - A^H|``, ``scale = max(1, max|A|)`` (NaN or inf when
    an entry is not finite), and ``bad`` marks a matrix with a non-finite
    entry or with ``defect > HERMITIAN_TOL * scale``.
    """
    scale = np.abs(a).max(axis=(-2, -1), initial=1.0)
    finite = np.isfinite(scale)
    if np.count_nonzero(finite) < finite.size:   # keep inf - inf out
        a = np.where(np.isfinite(a), a, 0)
    # A - A^H in one contiguous temporary: the transposing pass is the
    # conjugation, and the subtraction runs in place
    diff = np.conjugate(a.swapaxes(-1, -2), out=np.empty_like(a))
    np.subtract(a, diff, out=diff)
    defect = np.abs(diff).max(axis=(-2, -1), initial=0.0)
    return ~finite | (defect > HERMITIAN_TOL * scale), defect, scale


def require_hermitian(a, what: str) -> np.ndarray:
    """Hermitian part ``(A + A^H)/2`` of ``a``, checked first: the one
    Hermiticity gate of the package.

    Raises :class:`NonHermitianInput` when ``a`` breaks the rule of
    :func:`hermitian_defects`: an entry is not finite or
    ``max|A - A^H| > 1e-12 * max(1, max|A|)``.  The result has the bits of
    :func:`hermitize`, so an exactly Hermitian input keeps its values.
    """
    arr = as_matrix(a)
    bad, defect, scale = hermitian_defects(arr)
    if bad:
        if not np.isfinite(scale):       # max|A| is NaN or inf
            raise NonHermitianInput(f"{what}: entries are not all finite")
        raise NonHermitianInput(
            f"{what}: max|A - A^H| = {defect:.3e} > "
            f"{HERMITIAN_TOL:g} * {scale:.3e}")
    return 0.5 * (arr + arr.conj().T)


class OperatorMatrix:
    """Read-only dense operator: the edge type of the public API.

    Functions that hand an operator to a caller return one; the package's
    own loops work on plain ndarrays.  The wrapper holds a read-only
    complex copy and checks nothing beyond the square shape.  The
    operators the package builds are Hermitian or unitary by construction
    (unitary conjugates of Hermitian matrices, products of exponentials of
    Hermitian generators); outside data is gated by
    :func:`require_hermitian` where it enters the package.

    Parameters
    ----------
    array : array_like
        Square matrix; it is copied as complex, so the caller's array stays
        writeable and later writes to it do not reach ``.array``.

    Raises
    ------
    DimensionMismatch
        If ``array`` is not a square matrix.
    """

    __slots__ = ("_array",)

    def __init__(self, array):
        arr = as_matrix(array).copy()
        arr.setflags(write=False)
        self._array = arr

    @property
    def array(self) -> np.ndarray:
        """The underlying (read-only) complex ndarray."""
        return self._array

    @property
    def dim(self) -> int:
        """Matrix dimension."""
        return self._array.shape[0]

    def __repr__(self):
        return f"OperatorMatrix(dim={self.dim})"


def _canonical_cluster_basis(vecs: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the column span of ``vecs``.

    Projects the standard basis vectors e_0, e_1, ... onto the span in index
    order, keeping each projection that is not (numerically) already inside
    the span of the kept ones, then Gram-Schmidt orthonormalizes.
    """
    dim, d = vecs.shape
    proj = vecs @ vecs.conj().T          # orthogonal projector onto the span
    basis = []
    for j in range(dim):
        if len(basis) == d:
            break
        w = proj[:, j].copy()            # projection of e_j
        for b in basis:
            w -= b * (b.conj() @ w)
        nrm = np.linalg.norm(w)
        if nrm > 1e-7:
            basis.append(w / nrm)
    if len(basis) != d:                  # pathological span; fall back
        basis = [vecs[:, k] for k in range(d)]
    return np.column_stack(basis)


def _fix_phase(vecs: np.ndarray) -> np.ndarray:
    """Make each column's largest-|.| component (lowest index on ties) real > 0."""
    # argmax takes the first maximum; the broadcast product has the bits of
    # scaling the columns one at a time; all-zero columns stay as they are
    piv = vecs[np.abs(vecs).argmax(axis=0), np.arange(vecs.shape[1])]
    if np.count_nonzero(piv) == piv.size:
        return vecs * (np.abs(piv) / piv)
    out, nz = vecs.copy(), piv != 0
    out[:, nz] *= np.abs(piv[nz]) / piv[nz]
    return out


def cluster_bounds(w: np.ndarray, thresh: float) -> np.ndarray:
    """Bounds ``b`` of the clusters ``w[b[k]:b[k+1]]`` of ascending ``w``;
    adjacent eigenvalues share a cluster when their gap is ``< thresh``."""
    close = w[1:] - w[:-1] < thresh
    if not close.any():                  # every eigenvalue is its own cluster
        return np.arange(w.size + 1)
    return np.flatnonzero(np.concatenate(([True], ~close, [True])))


def eigh(a, *, check_hermitian: bool = True):
    """Hermitian eigendecomposition with deterministic output.

    Parameters
    ----------
    a : array_like or OperatorMatrix
        Hermitian matrix.
    check_hermitian : bool
        If True (default), pass ``a`` through :func:`require_hermitian` and
        decompose its Hermitian part.  If False, ``a`` is decomposed as
        given: the caller passes an exactly Hermitian matrix
        (``A == A^H`` entrywise, e.g. a :func:`require_hermitian` or
        :func:`hermitize` result, or a real combination of such).

    Returns
    -------
    w : ndarray, shape (dim,)
        Eigenvalues in ascending order.
    v : ndarray, shape (dim, dim)
        Orthonormal eigenvectors as columns, canonicalized: inside each
        near-degenerate cluster (gaps < 1e-9 max(1, ||A||_F)) the basis is
        the deterministic projection construction, and every column's
        largest-magnitude entry is made real positive.

    Raises
    ------
    NonHermitianInput
        If the hermiticity check fails.
    ConvergenceFailure
        If LAPACK does not converge.
    """
    h = require_hermitian(a, "eigh input") if check_hermitian else as_matrix(a)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigh failed to converge: {exc}") from exc

    # canonicalize within near-degenerate clusters
    # ||h||_F from the spectrum: sqrt(sum w^2) for Hermitian h
    thresh = _CLUSTER_GAP * max(float(np.sqrt(w @ w)), 1.0)
    bounds = cluster_bounds(w, thresh)
    if bounds.size <= w.size:            # some cluster has two or more members
        for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            if stop - start > 1:
                v[:, start:stop] = _canonical_cluster_basis(v[:, start:stop])
    return w, _fix_phase(v)


def _component_labels(adjacency: np.ndarray) -> np.ndarray:
    """Connected component of each vertex of a symmetric boolean
    adjacency matrix, labelled by the component's smallest vertex index.

    Min-label propagation with pointer jumping: each round a vertex takes
    the smallest label among itself and its neighbours, then the label of
    that label.  Every label stays a vertex of the same component that is
    no larger than the vertex, so the fixed point is the component minimum.
    """
    d = adjacency.shape[0]
    label = np.arange(d)
    while True:
        nxt = np.where(adjacency, label, d).min(axis=1, initial=d)
        nxt = np.minimum(label, nxt)
        nxt = nxt[nxt]
        if np.array_equal(nxt, label):
            return label
        label = nxt


def eigvalsh(a) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of each matrix of a
    ``(..., d, d)`` stack, solved block by block.

    The blocks are the connected components of the stack's union nonzero
    pattern, so the partition is exact for every matrix of the stack.  A
    single component is one ``np.linalg.eigvalsh(hermitize(a))`` call, the
    bits of the dense solve.  Otherwise each block of two or more indices
    is gathered, Hermitized and solved by one stacked call, a 1 x 1 block's
    eigenvalue is its real diagonal entry, and the concatenated eigenvalues
    are sorted.
    """
    arr = np.asarray(a, dtype=complex)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise DimensionMismatch(
            f"expected square matrices, got shape {arr.shape}")
    d = arr.shape[-1]
    pattern = (arr != 0).reshape(-1, d, d).any(axis=0)
    label = _component_labels(pattern | pattern.T)
    if not label.any():                  # one component (or d == 0)
        return np.linalg.eigvalsh(hermitize(arr))
    sizes = np.bincount(label, minlength=d)
    single = np.flatnonzero(sizes[label] == 1)
    parts = [arr[..., single, single].real]
    for root in np.flatnonzero(sizes > 1).tolist():
        idx = np.flatnonzero(label == root)
        parts.append(np.linalg.eigvalsh(hermitize(arr[..., idx[:, None], idx])))
    return np.sort(np.concatenate(parts, axis=-1), axis=-1)


def expm_igen(a, s: float = 1.0, *, check_hermitian: bool = True) -> np.ndarray:
    """Unitary exponential ``exp(-1j * s * A)`` of a Hermitian generator.

    Uses the spectral decomposition of ``A`` so the result is unitary to
    machine precision for any real ``s``.

    Parameters
    ----------
    a : array_like or OperatorMatrix
        Hermitian generator.
    s : float
        Real scale (e.g. a time step).
    check_hermitian : bool
        As for :func:`eigh`: if False, ``a`` must be exactly Hermitian.

    Returns
    -------
    ndarray
        The unitary ``exp(-1j*s*A)``.
    """
    arr = (require_hermitian(a, "expm_igen generator") if check_hermitian
           else as_matrix(a))
    s = float(s)
    # fast path: exactly diagonal input (zero off-diagonal, finite diagonal)
    d = arr.diagonal()
    if np.count_nonzero(arr) == np.count_nonzero(d) and np.isfinite(d).all():
        return np.diag(np.exp(-1j * s * d.real))
    w, v = eigh(arr, check_hermitian=False)
    return spectral_exp(w, v, s)


def spectral_exp(w, v, t) -> np.ndarray:
    """``exp(-1j * t * A)`` from the eigendecomposition ``A = v diag(w) v^H``.

    ``t`` is a real scalar or an array of times; one exponential per time
    is stacked along the leading axes of ``t``'s shape (none for a scalar).
    ``v`` must be unitary (columns orthonormal); every result is then
    unitary to machine precision for any real ``t``.
    """
    if not isinstance(t, float):   # a float (each integrator step) skips ~1 us
        t = np.asarray(t, dtype=float)[..., None, None]
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def comm(a, b) -> np.ndarray:
    """Commutator [A, B] = AB - BA."""
    aa, bb = as_matrix(a), as_matrix(b)
    if aa.shape != bb.shape:
        raise DimensionMismatch(
            f"commutator operands differ in shape: {aa.shape} vs {bb.shape}")
    return aa @ bb - bb @ aa

def comm_norm(a, b) -> float:
    """Frobenius norm of the commutator [A, B]."""
    return float(np.linalg.norm(comm(a, b)))


def polar_unitary(a) -> np.ndarray:
    """Nearest unitary to ``a`` in Frobenius norm (polar factor via SVD)."""
    arr = as_matrix(a)
    u, _, vh = np.linalg.svd(arr)
    return u @ vh
