"""Deterministic linear-algebra core for finite-dimensional quantum dynamics.

All operators live in a fixed orthonormal basis.  Inside the package they
are plain dense complex ``numpy`` arrays; :class:`OperatorMatrix` is the
read-only copy the public API hands out, and :func:`as_matrix` unwraps
either form.  Operators the package builds are Hermitian or unitary by
construction and are not checked; outside data passes the one
Hermiticity gate, :func:`require_hermitian`, where it enters.  The module
provides exactly-unitary matrix exponentials of Hermitian generators, a
deterministic Hermitian eigensolver (ascending eigenvalues, canonical
eigenvector choice inside degenerate clusters), commutator norms, the
one block-partition rule (:func:`block_partition`) with the helpers that
hold a block-diagonal matrix as per-size stacks of its blocks, and a
handful of small helpers (Hermitization, polar re-unitarization, the
Schur form of a unitary) used by the propagation and invariant layers.

Conventions
-----------
* hbar = 1 throughout.
* ``eigh`` returns eigenvalues ascending; for a matrix, within a degenerate
  cluster the eigenvectors are the Gram-Schmidt orthonormalization, in
  index order, of the projections of the standard basis vectors onto the
  cluster eigenspace, and every eigenvector's largest-magnitude component
  (lowest index on ties) is made real and positive.  Equal inputs therefore
  give bit-identical output.  A ``(k, d, d)`` stack is decomposed by one
  LAPACK call whose eigenvectors are kept as they are.
* ``expm_igen(A, s)`` computes ``exp(-1j*s*A)`` for Hermitian ``A``, or for
  each matrix of a stack, through its spectral decomposition, so the result
  is unitary to machine precision.
* ``parts_eigvalsh`` solves a part that is tridiagonal in its data (3 or
  more rows, nothing off the three central diagonals) through the real
  symmetric tridiagonal ``T = D H D^H`` of its Hermitian part ``H``:
  diagonal ``Re a_ii``, off-diagonals ``|h_{i,i+1}|`` with ``h_{i,i+1} =
  (a_{i,i+1} + conj a_{i+1,i}) / 2``, and ``D`` diagonal unitary with
  ``D_{i+1,i+1} = D_ii h_{i,i+1} / |h_{i,i+1}|`` (Parlett, *The Symmetric
  Eigenvalue Problem*, SIAM 1998, ch. 7).  The similarity keeps the
  spectrum exactly; the real solve costs about half the complex one and
  agrees with it to rounding.  Any other part keeps the bits of
  ``eigvalsh(hermitize(p))``.
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
    "block_partition",
    "eigh",
    "expm_igen",
    "comm",
    "comm_norm",
    "frob",
    "hermitian_defects",
    "hermitize",
    "parts_eigvalsh",
    "polar_unitary",
    "require_hermitian",
    "require_hermitian_stack",
    "spectral_exp",
    "unitary_schur",
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


def _as_stack(a) -> np.ndarray:
    """Complex ``(..., d, d)`` ndarray of an array_like or OperatorMatrix."""
    arr = np.asarray(a.array if isinstance(a, OperatorMatrix) else a,
                     dtype=complex)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise DimensionMismatch(
            f"expected square matrices, got shape {arr.shape}")
    return arr


def hermitize(a) -> np.ndarray:
    """Hermitian part (A + A^dagger)/2 of a matrix, or of every matrix of
    a ``(..., d, d)`` stack, as a complex ndarray."""
    arr = _as_stack(a)
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
        raise _not_hermitian(what, defect, scale)
    return 0.5 * (arr + arr.conj().T)


def require_hermitian_stack(a: np.ndarray, what) -> np.ndarray:
    """:func:`require_hermitian` of each matrix of a ``(k, d, d)`` stack,
    in one pass: the Hermitian parts, each with the bits of its own gate.

    The first matrix that breaks the rule raises the message its own gate
    would raise, naming it ``what(k)``.
    """
    bad, defect, scale = hermitian_defects(a)
    if bad.any():
        k = int(np.argmax(bad))
        raise _not_hermitian(what(k), defect[k], scale[k])
    # hermitize's (A + A^H) / 2 in one buffer: the sum commutes, so the
    # bits are the same
    out = np.conjugate(a.swapaxes(-1, -2), out=np.empty(a.shape, complex))
    out += a
    out *= 0.5
    return out


def _not_hermitian(what: str, defect, scale) -> NonHermitianInput:
    """The gate's error for a matrix with :func:`hermitian_defects` values
    ``defect`` and ``scale``."""
    if not np.isfinite(scale):           # max|A| is NaN or inf
        return NonHermitianInput(f"{what}: entries are not all finite")
    return NonHermitianInput(
        f"{what}: max|A - A^H| = {defect:.3e} > "
        f"{HERMITIAN_TOL:g} * {scale:.3e}")


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


def _hermitian_input(a, what: str, check: bool) -> np.ndarray:
    """A matrix or a ``(k, d, d)`` stack as a complex ndarray, through the
    Hermiticity gate when ``check`` (Hermitian part of each matrix)."""
    arr = _as_stack(a)
    if arr.ndim == 2:
        return require_hermitian(arr, what) if check else arr
    if arr.ndim != 3:
        raise DimensionMismatch(
            f"expected a matrix or a (k, d, d) stack, got shape {arr.shape}")
    if not check:
        return arr
    bad, _, _ = hermitian_defects(arr)
    if bad.any():
        raise NonHermitianInput(
            f"{what} {int(np.argmax(bad))} of the stack is not Hermitian")
    return hermitize(arr)


def eigh(a, *, check_hermitian: bool = True):
    """Hermitian eigendecomposition with deterministic output, of a matrix
    or of each matrix of a ``(k, d, d)`` stack.

    A stack takes one stacked LAPACK call and keeps LAPACK's eigenvectors:
    orthonormal and reproducible, but not canonicalized, which a function
    of the matrix (such as :func:`expm_igen`'s exponential) does not need.

    Parameters
    ----------
    a : array_like or OperatorMatrix
        Hermitian matrix, or a ``(k, d, d)`` stack of them.
    check_hermitian : bool
        If True (default), pass ``a`` through :func:`require_hermitian` (a
        stack: every matrix through the same rule) and decompose its
        Hermitian part.  If False, ``a`` is decomposed as given: the caller
        passes an exactly Hermitian matrix (``A == A^H`` entrywise, e.g. a
        :func:`require_hermitian` or :func:`hermitize` result, or a real
        combination of such).

    Returns
    -------
    w : ndarray, shape (dim,) or (k, dim)
        Eigenvalues in ascending order.
    v : ndarray, shape (dim, dim) or (k, dim, dim)
        Orthonormal eigenvectors as columns.  For a matrix they are
        canonicalized: inside each near-degenerate cluster (gaps
        < 1e-9 max(1, ||A||_F)) the basis is the deterministic projection
        construction, and every column's largest-magnitude entry is made
        real positive.

    Raises
    ------
    NonHermitianInput
        If the hermiticity check fails (for a stack: on any matrix).
    ConvergenceFailure
        If LAPACK does not converge.
    """
    h = _hermitian_input(a, "eigh input", check_hermitian)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigh failed to converge: {exc}") from exc
    if h.ndim == 3:
        return w, v

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


def block_partition(pattern: np.ndarray):
    """The connected blocks of a square boolean nonzero ``pattern``, as
    gather indices: the one block-partition rule of the package.

    The blocks are the connected components of ``pattern | pattern.T``.
    For each block size ``n`` in ascending order, one ``(k, n, n)`` array
    holds the flat indices ``i * dim + j`` of the ``k`` blocks of that
    size, blocks ordered by their smallest index.  Returns ``None`` when
    the pattern is one component (or ``dim == 0``).
    """
    comp = _component_labels(pattern | pattern.T)
    if not comp.any():                   # one component (or dim 0)
        return None
    dim = comp.size
    flat = np.arange(dim * dim).reshape(dim, dim)
    by_size = {}
    for root in np.unique(comp).tolist():
        idx = np.flatnonzero(comp == root)
        by_size.setdefault(idx.size, []).append(flat[np.ix_(idx, idx)])
    return tuple(np.array(by_size[n]) for n in sorted(by_size))


def _is_tridiagonal(p: np.ndarray) -> bool:
    """True when every matrix of the ``(..., n, n)`` stack ``p`` has at
    least 3 rows and no nonzero entry off its three central diagonals."""
    if p.shape[-1] < 3:
        return False
    band = sum(np.count_nonzero(np.diagonal(p, k, -2, -1))
               for k in (-1, 0, 1))
    return np.count_nonzero(p) == band


def _tridiagonal_form(p: np.ndarray) -> np.ndarray:
    """The real symmetric tridiagonal matrix similar to the Hermitian part
    of each matrix of a tridiagonal ``(..., n, n)`` stack: diagonal
    ``Re a_ii``, off-diagonals ``|(a_{i,i+1} + conj a_{i+1,i}) / 2|``."""
    n = p.shape[-1]
    t = np.zeros(p.shape, dtype=float)
    flat = t.reshape(p.shape[:-2] + (n * n,))
    flat[..., ::n + 1] = np.diagonal(p, 0, -2, -1).real
    off = np.abs(0.5 * (np.diagonal(p, 1, -2, -1)
                        + np.diagonal(p, -1, -2, -1).conj()))
    flat[..., 1::n + 1] = off          # (i, i + 1)
    flat[..., n::n + 1] = off          # (i + 1, i)
    return t


def _part_eigvalsh(p: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of each matrix of the
    ``(..., n, n)`` stack ``p``: through the real tridiagonal form when
    ``p`` is tridiagonal in its data, else ``eigvalsh(hermitize(p))``."""
    if _is_tridiagonal(p):
        return np.linalg.eigvalsh(_tridiagonal_form(p))
    return np.linalg.eigvalsh(hermitize(p))


def parts_eigvalsh(parts: tuple, blocks) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of each matrix held as
    the parts of ``blocks`` (:func:`parts`, with any leading axes).

    ``None`` (one component) solves the one dense part.  Otherwise the
    blocks of each size are solved by one stacked call (a 1 x 1 block's
    eigenvalue is its real diagonal entry), and the concatenated
    eigenvalues are sorted.

    Each part takes one of two routes, chosen from its data.  A part of 3
    or more rows with no nonzero entry off the three central diagonals in
    any of its matrices is solved as the real symmetric tridiagonal form
    ``T = D H D^H`` of its Hermitian part ``H`` (see the module
    Conventions): exact in spectrum, about half the cost of the complex
    solve, and within rounding of it.  Every other part, one entry off
    the band included, is ``np.linalg.eigvalsh(hermitize(p))`` with the
    dense solve's bits.
    """
    if blocks is None:
        return _part_eigvalsh(parts[0])
    return np.sort(np.concatenate(
        [_part_eigvalsh(p).reshape(p.shape[:-3] + (-1,)) for p in parts],
        axis=-1), axis=-1)


def parts(matrix: np.ndarray, blocks) -> tuple:
    """A dense matrix, or each matrix of a ``(..., d, d)`` stack, as the
    kernel's parts: the matrix itself, or one ``(..., k, n, n)`` stack per
    block size, gathered by ``blocks`` (a :func:`block_partition` result)."""
    if blocks is None:
        return (matrix,)
    flat = matrix.reshape(matrix.shape[:-2] + (-1,))
    return tuple(flat.take(idx, axis=-1) for idx in blocks)


def block_mask(blocks, dim: int) -> np.ndarray:
    """The ``(dim, dim)`` boolean mask of the entries that lie inside the
    blocks of ``blocks`` (a :func:`block_partition` result; ``None``, one
    component, covers every entry)."""
    if blocks is None:
        return np.ones((dim, dim), dtype=bool)
    inside = np.zeros(dim * dim, dtype=bool)
    for idx in blocks:
        inside[idx] = True
    return inside.reshape(dim, dim)


def block_sizes(blocks, dim: int) -> list:
    """The size of every block of ``blocks``, ascending: ``[dim]`` for
    ``None`` (one component)."""
    if blocks is None:
        return [dim]
    return [idx.shape[1] for idx in blocks for _ in range(idx.shape[0])]


def dense(parts: tuple, blocks, dim: int) -> np.ndarray:
    """The dense matrices the parts of ``blocks`` make up: the inverse of
    :func:`parts`, for one matrix or for parts with a leading row axis."""
    if blocks is None:
        return parts[0]
    lead = parts[0].shape[:-3]
    out = np.zeros(lead + (dim * dim,), dtype=complex)
    for idx, p in zip(blocks, parts):
        out[..., idx] = p
    return out.reshape(lead + (dim, dim))


def size_groups(sizes) -> list:
    """``[(d, [n, ...]), ...]``: the blocks ``n`` of each size ``d`` of a
    block-diagonal matrix with diagonal blocks of ``sizes``, sizes
    ascending and blocks in diagonal order, the order of
    :func:`block_partition`."""
    return [(d, [n for n, size in enumerate(sizes) if size == d])
            for d in sorted(set(sizes))]


def block_rows(parts: tuple, sizes) -> list:
    """Each diagonal block's rows, in diagonal order, from parts with a
    leading row axis of a block-diagonal matrix with diagonal blocks of
    ``sizes`` (views, no copies)."""
    if len(sizes) == 1:
        return [parts[0]]
    out = [None] * len(sizes)
    for part, (_, members) in zip(parts, size_groups(sizes)):
        for j, n in enumerate(members):
            out[n] = part[:, j]
    return out


def expm_igen(a, s: float = 1.0, *, check_hermitian: bool = True) -> np.ndarray:
    """Unitary exponential ``exp(-1j * s * A)`` of a Hermitian generator,
    or of each generator of a ``(k, d, d)`` stack.

    Uses the spectral decomposition of ``A`` so the result is unitary to
    machine precision for any real ``s``.  An exactly diagonal matrix is
    exponentiated entrywise; any other input takes one :func:`eigh` call
    (one stacked LAPACK call for a stack) and one :func:`spectral_exp`.

    Parameters
    ----------
    a : array_like or OperatorMatrix
        Hermitian generator, or a ``(k, d, d)`` stack of them.
    s : float
        Real scale (e.g. a time step).
    check_hermitian : bool
        As for :func:`eigh`: if False, ``a`` must be exactly Hermitian.

    Returns
    -------
    ndarray
        The unitary ``exp(-1j*s*A)``, or the stack of them.

    Raises
    ------
    NonHermitianInput
        If the hermiticity check fails (for a stack: on any matrix).
    ConvergenceFailure
        If LAPACK does not converge.
    """
    s = float(s)
    h = _hermitian_input(a, "expm_igen generator", check_hermitian)
    if h.ndim == 2:
        # fast path: exactly diagonal input (zero off-diagonal, finite diagonal)
        d = h.diagonal()
        if np.count_nonzero(h) == np.count_nonzero(d) and np.isfinite(d).all():
            return np.diag(np.exp(-1j * s * d.real))
    return spectral_exp(*eigh(h, check_hermitian=False), s)


def spectral_exp(w, v, t) -> np.ndarray:
    """``exp(-1j * t * A)`` from the eigendecomposition ``A = v diag(w) v^H``.

    ``t`` is a real scalar or an array of times; one exponential per time
    is stacked along the leading axes of ``t``'s shape (none for a scalar).
    For a scalar ``t``, ``w`` and ``v`` may also be stacks ``(k, d)`` and
    ``(k, d, d)`` of decompositions, one exponential each.  ``v`` must be
    unitary (columns orthonormal); every result is then unitary to machine
    precision for any real ``t``.
    """
    if not isinstance(t, float):   # a float (each integrator step) skips ~1 us
        t = np.asarray(t, dtype=float)[..., None]
    return (v * np.exp(-1j * w * t)[..., None, :]) @ v.conj().swapaxes(-1, -2)


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
    """Nearest unitary to ``a`` in Frobenius norm (polar factor via SVD),
    or to each matrix of a ``(..., d, d)`` stack."""
    u, _, vh = np.linalg.svd(_as_stack(a))
    return u @ vh


def unitary_schur(u) -> tuple:
    """``(phases, q)`` of a unitary matrix ``u = q diag(exp(1j * phases))
    q^H``: the complex Schur form ``q t q^H`` of
    ``scipy.linalg.schur(u, output="complex")``, whose triangular ``t`` is
    diagonal to rounding for a normal matrix, with ``phases =
    angle(diag(t))``.

    The Schur form is backward stable where an eigenvector basis is not:
    a near-scalar unitary (a degenerate holonomy close to a phase times the
    identity) has ill-conditioned eigenvectors, but ``q`` stays unitary to
    rounding.  numpy has no Schur routine, so this is the package's one
    use of scipy.  ``scipy.linalg`` is imported on the first call, not
    with the package: its import costs about 0.2 s of CPU and 20 MiB of
    memory, and only the periodic closure of a degenerate eigenframe block
    (:func:`invphase.invariant.eigenframe`) needs it.
    """
    import scipy.linalg
    t, q = scipy.linalg.schur(u, output="complex")
    return np.angle(np.diag(t)), q
