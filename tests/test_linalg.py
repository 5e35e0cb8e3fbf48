import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from invphase import linalg
from invphase.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NonHermitianInput,
)
from invphase.linalg import OperatorMatrix, comm_norm, eigh, expm_igen


def taylor_expm(a, s, terms=60):
    """Independent oracle: exp(-1j*s*a) by plain Taylor series."""
    a = np.asarray(a, dtype=complex)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ ((-1j * s) * a) / k
        out = out + term
    return out


class TestOperatorMatrix:
    def test_diag_hermitian(self):
        m = OperatorMatrix(np.diag([2.0, -1.0]))
        assert m.dim == 2
        assert np.array_equal(m.array, np.diag([2.0, -1.0]))

    def test_hermitian_flag_rejected(self):
        # the wrapper takes no flags; a non-Hermitian operator it holds is
        # refused by the Hermiticity gate where it enters
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(TypeError):
            OperatorMatrix(a, flags=("hermitian",))
        m = OperatorMatrix(a)
        with pytest.raises(NonHermitianInput, match=r"^A: max\|A - A\^H\|"):
            linalg.require_hermitian(m, "A")
        with pytest.raises(NonHermitianInput):
            eigh(m)
        with pytest.raises(NonHermitianInput):
            expm_igen(m)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            OperatorMatrix(np.zeros((2, 3)))

    def test_immutability(self):
        m = OperatorMatrix(np.eye(2))
        with pytest.raises((ValueError, RuntimeError)):
            m.array[0, 0] = 5.0

    def test_caller_array_stays_writeable(self):
        a = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, 3.0]])
        m = OperatorMatrix(a)
        assert a.flags.writeable
        a[0, 0] = 5.0
        assert m.array[0, 0] == 1.0


class TestEigh:
    def test_pauli_x_convention(self):
        # Pauli X: eigenvalues (-1, 1),
        # eigenvectors (1,-1)/sqrt(2) then (1,1)/sqrt(2)
        w, v = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0], atol=1e-14)
        s = 1 / np.sqrt(2)
        assert np.allclose(v[:, 0], [s, -s], atol=1e-14)
        assert np.allclose(v[:, 1], [s, s], atol=1e-14)

    def test_ascending_order(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        a = a + a.conj().T
        w, v = eigh(a)
        assert np.all(np.diff(w) >= 0)
        assert np.allclose(a @ v, v * w, atol=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianInput):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(1, 1), (0, 2)])
    def test_non_finite_rejected(self, bad, where):
        # a symmetric non-finite pair in a dense or an exactly diagonal matrix
        for a in (np.array([[1.0, 0.5, 0.0], [0.5, 2.0, 0.0],
                            [0.0, 0.0, 3.0]]), np.diag([1.0, 2.0, 3.0])):
            a[where] = a[where[::-1]] = bad
            with pytest.raises(NonHermitianInput):
                eigh(a)

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
        a = a + a.conj().T
        w1, v1 = eigh(a)
        w2, v2 = eigh(a.copy())
        assert np.array_equal(w1, w2)
        assert np.array_equal(v1, v2)

    def test_degenerate_cluster_canonical(self):
        # identity block: canonical basis must be the standard basis itself
        w, v = eigh(np.eye(4))
        assert np.allclose(v, np.eye(4), atol=1e-12)

    def test_degenerate_cluster_rotation_independent(self):
        # two degenerate subspaces; result must not depend on which unitary
        # mixes them before the solve (up to the eigenspaces themselves)
        rng = np.random.default_rng(3)
        d = np.diag([1.0, 1.0, 2.0, 2.0])
        # conjugate by a random unitary that preserves the eigenspaces
        q1, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        q = np.block([[q1, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]])
        a = q @ d @ q.conj().T
        w1, v1 = eigh(d)
        w2, v2 = eigh(a)
        assert np.allclose(w1, w2, atol=1e-12)
        # same eigenvalue-1 subspace, canonically fixed basis -> same vectors
        assert np.allclose(v1[:, :2], v2[:, :2], atol=1e-9)

    def test_phase_convention_real_positive(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        a = a + a.conj().T
        _, v = eigh(a)
        for j in range(12):
            i = int(np.argmax(np.abs(v[:, j])))
            piv = v[i, j]
            assert abs(piv.imag) < 1e-13
            assert piv.real > 0

    def test_random_hermitian_properties(self):
        rng = np.random.default_rng(123)
        for dim in (2, 5, 17, 64, 200):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            a = (a + a.conj().T) / 2
            w, v = eigh(a)
            assert np.all(np.diff(w) >= 0)
            assert np.allclose(v.conj().T @ v, np.eye(dim), atol=1e-11)
            assert np.linalg.norm(a @ v - v * w) < 1e-10 * max(
                1.0, np.linalg.norm(a))


class TestExpm:
    def test_pauli_x_half_pi(self):
        # Pauli X rotation: exp(-1j * (pi/2) * X) = -1j * X
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        u = expm_igen(x, np.pi / 2)
        assert np.allclose(u, -1j * x, atol=1e-14)
        assert np.allclose(u, taylor_expm(x, np.pi / 2), atol=1e-13)

    def test_diagonal_fast_path(self):
        d = np.diag([1.0, -2.0, 0.5])
        u = expm_igen(d, 0.7)
        assert np.allclose(u, np.diag(np.exp(-1j * 0.7 * np.diag(d))),
                           atol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # an exactly diagonal input skips the fast path and is checked
        for a in (np.diag([1.0, bad, 3.0]),
                  np.array([[1.0, bad], [bad, 2.0]])):
            with pytest.raises(NonHermitianInput):
                expm_igen(a, 0.5)

    def test_unitarity_machine_precision(self):
        rng = np.random.default_rng(42)
        for dim in (3, 20, 120):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            a = (a + a.conj().T) / 2
            u = expm_igen(a, 0.31)
            assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) < 1e-12 * dim

    def test_matches_taylor_oracle(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        a = (a + a.conj().T) / 2
        for s in (0.0, 0.1, -1.3):
            assert np.allclose(expm_igen(a, s), taylor_expm(a, s), atol=1e-12)

    def test_group_property(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(8, 8))
        a = (a + a.T) / 2
        u1 = expm_igen(a, 0.4)
        u2 = expm_igen(a, 0.6)
        u3 = expm_igen(a, 1.0)
        assert np.allclose(u1 @ u2, u3, atol=1e-13)

    def test_operatormatrix_input(self):
        m = OperatorMatrix(np.diag([1.0, 2.0]))
        u = expm_igen(m, 1.0)
        assert np.allclose(u, np.diag(np.exp(-1j * np.array([1.0, 2.0]))))


def _reference_fix_phase(vecs):
    """Per-column phase loop that ``linalg._fix_phase`` vectorizes."""
    out = vecs.copy()
    mags = np.abs(out)
    for j in range(out.shape[1]):
        i = int(np.argmax(mags[:, j]))   # argmax takes the first maximum
        piv = out[i, j]
        if piv != 0:
            out[:, j] *= np.abs(piv) / piv
    return out


def _reference_eigh(a):
    """``eigh`` with the scalar cluster scan and the per-column phase loop."""
    h = linalg.require_hermitian(a, "eigh input")
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigh failed to converge: {exc}") from exc
    thresh = 1e-9 * max(float(np.linalg.norm(h)), 1.0)
    n = w.size
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and (w[stop] - w[stop - 1]) < thresh:
            stop += 1
        if stop - start > 1:
            v[:, start:stop] = linalg._canonical_cluster_basis(
                v[:, start:stop])
        start = stop
    return w, _reference_fix_phase(v)


def _reference_expm_igen(a, s):
    """``expm_igen`` with the elementwise diagonal test."""
    arr = linalg.require_hermitian(a, "expm_igen generator")
    if not np.any(arr - np.diag(np.diag(arr))):
        return np.diag(np.exp(-1j * s * np.diag(arr).real))
    w, v = _reference_eigh(arr)
    return linalg.spectral_exp(w, v, s)


def _outcome(fn, *args):
    """Arrays returned by ``fn``, or the type and text of what it raised."""
    with np.errstate(all="ignore"):
        try:
            out = fn(*args)
        except (ConvergenceFailure, NonHermitianInput) as exc:
            return type(exc), str(exc)
    return out if isinstance(out, tuple) else (out,)


def _same_outcome(x, y):
    if not isinstance(x[0], np.ndarray) or not isinstance(y[0], np.ndarray):
        return x == y
    # NaN entries match NaN entries (their sign bit carries no meaning)
    return len(x) == len(y) and all(
        np.array_equal(p, q, equal_nan=True) for p, q in zip(x, y))


def _matches_reference(a, s):
    return (_same_outcome(_outcome(eigh, a), _outcome(_reference_eigh, a))
            and _same_outcome(_outcome(expm_igen, a, s),
                              _outcome(_reference_expm_igen, a, s)))


@st.composite
def hermitian_inputs(draw):
    """Hermitian test matrices of the kinds the canonicalization must fix."""
    kind = draw(st.sampled_from(
        ["real", "complex", "clusters", "kron", "diagonal", "nan_diagonal"]))
    dim = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if kind == "real":
        a = g.real + g.real.T
    elif kind == "complex":
        a = g + g.conj().T
    elif kind == "clusters":
        # a few levels, each repeated, split by far less than the cluster gap
        q, _ = np.linalg.qr(g)
        levels = np.sort(rng.integers(0, max(1, dim // 3), size=dim))
        w = levels + 1e-13 * rng.normal(size=dim)
        a = (q * w) @ q.conj().T
    elif kind == "kron":
        m = max(1, dim // 2)
        a = np.kron(g[:m, :m] + g[:m, :m].conj().T, np.eye(2))
    elif kind == "diagonal":
        a = np.diag(rng.integers(-2, 3, size=dim) * rng.normal(size=dim))
    else:
        # a NaN on the diagonal of a dense or of an exactly diagonal matrix
        a = g + g.conj().T if rng.random() < 0.5 else np.diag(g.real[0])
        i = rng.integers(dim)
        a[i, i] = np.nan
    return a, draw(st.floats(-3.0, 3.0))


class TestBitIdentityWithLoops:
    """The vectorized canonicalization gives exactly what the loops gave."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=hermitian_inputs())
    def test_eigh_and_expm_match_reference(self, case):
        assert _matches_reference(*case)

    @pytest.mark.parametrize("dim", [1, 2, 7, 24, 39])
    def test_fix_phase_matches_reference_loop(self, dim):
        rng = np.random.default_rng(dim)
        for vecs in (rng.normal(size=(dim, dim)).astype(complex),
                     rng.normal(size=(dim, dim))
                     + 1j * rng.normal(size=(dim, dim))):
            vecs[:, rng.random(dim) < 0.3] = 0    # all-zero columns
            vecs[rng.random((dim, dim)) < 0.2] *= -1   # signed zeros
            got = linalg._fix_phase(vecs)
            ref = _reference_fix_phase(vecs)
            assert np.array_equal(got.view(float), ref.view(float))
            assert np.array_equal(np.signbit(got.view(float)),
                                  np.signbit(ref.view(float)))

    def test_last_maximum_pivot_is_caught(self, monkeypatch):
        # Pauli X eigenvectors have entries of equal magnitude, so the
        # pivot is a tie that the lowest index must win
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert _matches_reference(x, 0.3)

        def last_max_pivot(vecs):
            rows = vecs.shape[0] - 1 - np.abs(vecs[::-1]).argmax(axis=0)
            piv = vecs[rows, np.arange(vecs.shape[1])]
            return vecs * (np.abs(piv) / piv)

        monkeypatch.setattr(linalg, "_fix_phase", last_max_pivot)
        assert not _matches_reference(x, 0.3)


class TestClusterBounds:
    def test_gap_rule(self):
        w = np.array([0.0, 0.5e-9, 1.0, 2.0, 2.0, 2.0 + 0.99e-9, 3.0])
        assert linalg.cluster_bounds(w, 1e-9).tolist() == [0, 2, 3, 6, 7]

    def test_no_close_pair_and_empty(self):
        assert linalg.cluster_bounds(np.arange(4.0), 1e-9).tolist() == [
            0, 1, 2, 3, 4]
        assert linalg.cluster_bounds(np.array([]), 1e-9).tolist() == [0]

    def test_nan_gap_splits(self):
        # a NaN gap is not "< thresh", as in the scalar scan
        w = np.array([0.0, np.nan, np.nan])
        assert linalg.cluster_bounds(w, 1e-9).tolist() == [0, 1, 2, 3]


class TestCommNorm:
    def test_commuting(self):
        assert comm_norm(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == 0.0

    def test_pauli(self):
        # [X, Y] = 2i Z -> Frobenius norm = 2*sqrt(2)
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        y = np.array([[0.0, -1j], [1j, 0.0]])
        assert np.isclose(comm_norm(x, y), 2 * np.sqrt(2), atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            comm_norm(np.eye(2), np.eye(3))


class TestHelpers:
    def test_polar_unitary(self):
        rng = np.random.default_rng(2)
        a = np.linalg.qr(rng.normal(size=(5, 5))
                         + 1j * rng.normal(size=(5, 5)))[0]
        noisy = a + 1e-8 * rng.normal(size=(5, 5))
        u = linalg.polar_unitary(noisy)
        assert np.linalg.norm(u.conj().T @ u - np.eye(5)) < 1e-14 * 5
        assert np.linalg.norm(u - a) < 1e-6

    def test_hermitize(self):
        a = np.array([[1.0, 2.0], [0.0, 3.0]])
        h = linalg.hermitize(a)
        assert np.array_equal(h, h.conj().T)

    def test_frob(self):
        assert np.isclose(linalg.frob(np.eye(3)), np.sqrt(3))


def _same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _reference_spectral_exp(w, v, t):
    """The one-time ``spectral_exp`` before it took an array of times."""
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def _reference_spectral_path(w, v, times):
    """The per-time loop that built ``exp(-i F_k B)`` before
    ``spectral_exp`` took an array of times (row 0 is the identity)."""
    out = np.empty((times.size,) + v.shape, dtype=complex)
    out[0] = np.eye(v.shape[0])
    for row in range(1, times.size):
        out[row] = _reference_spectral_exp(w, v, times[row])
    return out


class TestStackedHelpers:
    """Array-valued ``spectral_exp`` and stacked ``hermitize`` give the bits
    of the loops they replace."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           degenerate=st.booleans(),
           times=st.lists(st.floats(-40.0, 40.0), max_size=10))
    def test_spectral_exp_on_times_matches_loops(self, dim, seed, degenerate,
                                                 times):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        if degenerate:   # integer levels, most of them repeated
            q, _ = np.linalg.qr(g)
            a = (q * rng.integers(-2, 3, size=dim)) @ q.conj().T
        else:
            a = g + g.conj().T
        w, v = eigh(linalg.hermitize(a))
        times = np.array([0.0, -0.0, *times, -2.5])
        got = linalg.spectral_exp(w, v, times)
        ref = _reference_spectral_path(w, v, times)
        assert _same_bits(got[1:], ref[1:])
        per_time = np.array([_reference_spectral_exp(w, v, float(t))
                             for t in times])
        assert all(_same_bits(linalg.spectral_exp(w, v, float(t)), ref_t)
                   for t, ref_t in zip(times, per_time))
        assert _same_bits(got, per_time)
        grid = linalg.spectral_exp(w, v, times.reshape(1, -1))
        assert _same_bits(grid, per_time[None])

    def test_spectral_exp_of_zero_dim_time_is_one_matrix(self):
        w, v = eigh(np.array([[1.0, 2.0], [2.0, -1.0]]))
        for t in (0.7, np.array(0.7), 1, np.float32(0.5)):
            assert _same_bits(linalg.spectral_exp(w, v, t),
                              _reference_spectral_exp(w, v, float(t)))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(lead=st.lists(st.integers(0, 4), min_size=1, max_size=2),
           dim=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_hermitize_stack_matches_per_matrix_loop(self, lead, dim, seed):
        rng = np.random.default_rng(seed)
        shape = (*lead, dim, dim)
        stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        stack[rng.random(shape) < 0.2] *= -0.0     # signed zeros
        ref = np.empty_like(stack)
        for idx in np.ndindex(*lead):
            ref[idx] = 0.5 * (stack[idx] + stack[idx].conj().T)
        assert _same_bits(linalg.hermitize(stack), ref)

    def test_hermitize_rejects_non_square_stack(self):
        for shape in ((3, 1, 2), (2,), ()):
            with pytest.raises(DimensionMismatch):
                linalg.hermitize(np.zeros(shape, dtype=complex))

    def test_hermitize_of_real_stack_or_wrapper_is_complex(self):
        real = np.arange(8.0).reshape(2, 2, 2)
        got = linalg.hermitize(real)
        assert got.dtype == complex
        assert _same_bits(got[1], linalg.hermitize(real[1]))
        wrapped = OperatorMatrix(np.array([[1.0, 2j], [-2j, 3.0]]))
        assert _same_bits(linalg.hermitize(wrapped),
                          linalg.hermitize(wrapped.array))


@st.composite
def adjacency_masks(draw):
    """Symmetric boolean adjacency matrices: random graphs of up to 40
    vertices, or disjoint paths with their vertices shuffled (long chains
    take min-label propagation the most rounds)."""
    dim = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        mask = rng.random((dim, dim)) < draw(st.floats(0.0, 0.3))
    else:
        order = rng.permutation(dim)
        mask = np.zeros((dim, dim), dtype=bool)
        link = rng.random(dim - 1) < 0.9          # a few breaks
        mask[order[:-1][link], order[1:][link]] = True
    return mask | mask.T


@st.composite
def block_stacks(draw):
    """Stacks of 1 to 4 Hermitian matrices that share one block-diagonal
    pattern, blocks of 1 to 6 indices (singletons included), with the
    indices shuffled."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = sum(sizes)
    a = np.zeros((n, d, d), dtype=complex)
    start = 0
    for k in sizes:
        g = rng.normal(size=(n, k, k)) + 1j * rng.normal(size=(n, k, k))
        a[:, start:start + k, start:start + k] = g + g.conj().swapaxes(1, 2)
        start += k
    perm = rng.permutation(d)
    return a[:, perm][:, :, perm]


class TestBlockEigvalsh:
    """``linalg.eigvalsh`` solves each connected block of the union nonzero
    pattern and gives the spectrum of the dense solve."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mask=adjacency_masks())
    def test_labels_match_connected_components(self, mask):
        labels = linalg._component_labels(mask)
        _, ref = connected_components(mask, directed=False)
        # the label of each vertex is the smallest vertex of its component
        smallest = np.array([np.flatnonzero(ref == r)[0] for r in ref])
        assert np.array_equal(labels, smallest)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(a=block_stacks())
    def test_matches_dense_on_permuted_block_stacks(self, a):
        dense = np.linalg.eigvalsh(a)
        tol = 1e-13 * (1 + np.linalg.norm(a, 2, axis=(1, 2)))[:, None]
        assert np.all(np.abs(linalg.eigvalsh(a) - dense) <= tol)
        assert np.all(np.abs(linalg.eigvalsh(a[0]) - dense[0]) <= tol[0])

    @pytest.mark.parametrize("dim", [1, 2, 9])
    def test_one_component_is_the_dense_solve(self, dim):
        # a dense stack, and a tridiagonal one (connected through a chain)
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
        chain = np.triu(np.tril(a, 1), -1)
        for x in (a, chain, chain[1]):
            assert _same_bits(linalg.eigvalsh(x),
                              np.linalg.eigvalsh(linalg.hermitize(x)))

    def test_singletons_are_the_real_diagonal(self):
        # components {0}, {1, 3}, {2}; the singleton at 0 drops the
        # imaginary part of its diagonal entry, as hermitize does
        a = np.diag([3.0 + 2e-9j, -1.0, 0.0, 2.0])
        a[1, 3] = a[3, 1] = 0.5
        w = linalg.eigvalsh(np.stack([a, np.zeros((4, 4))]))
        pair = np.linalg.eigvalsh(a[1::2, 1::2])
        assert _same_bits(w[0], np.sort(np.concatenate([[3.0, 0.0], pair])))
        assert _same_bits(w[1], np.zeros(4))


def _signed_zero_hermitian(rng, dim):
    """Exactly Hermitian matrix with signed zeros among its entries (the
    diagonal's imaginary parts are +0 or -0)."""
    pick = np.array([0.0, -0.0, 1.0, -2.5])
    re, im = (np.where(rng.random((dim, dim)) < 0.5,
                       pick[rng.integers(pick.size, size=(dim, dim))],
                       rng.normal(size=(dim, dim))) for _ in range(2))
    upper = np.triu(np.ones((dim, dim), dtype=bool), 1)
    h = np.empty((dim, dim), dtype=complex)
    h.real = np.where(upper, re, re.T)
    h.imag = np.where(upper, im, -im.T)
    np.fill_diagonal(h.imag, 0.0 * im.diagonal())
    return h


class TestHermitianGate:
    """``require_hermitian`` is the one Hermiticity rule; it returns the
    Hermitian part with the bits of ``hermitize``."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e4]),
           perturb=st.floats(0.0, 0.3))
    def test_gate_is_hermitize_within_the_bound(self, dim, seed, scale,
                                                perturb):
        rng = np.random.default_rng(seed)
        h = scale * _signed_zero_hermitian(rng, dim)
        # each entry moves by at most sqrt(2) * perturb of the bound, so
        # max|X - X^H| stays below it
        bound = 1e-12 * max(1.0, float(np.max(np.abs(h))))
        x = h + perturb * bound * (rng.uniform(-1, 1, (dim, dim))
                                   + 1j * rng.uniform(-1, 1, (dim, dim)))
        got = linalg.require_hermitian(x, "x")
        assert _same_bits(got, linalg.hermitize(x))
        # the unchecked eigh takes a Hermitian part as given
        for p, q in zip(eigh(linalg.hermitize(x), check_hermitian=False),
                        eigh(x)):
            assert _same_bits(p, q)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e4]),
           excess=st.floats(1.5, 1e6),
           bad=st.sampled_from([np.nan, np.inf, -np.inf,
                                complex(0.0, np.inf)]))
    def test_gate_rejects_defect_above_the_bound_or_non_finite(
            self, dim, seed, scale, excess, bad):
        rng = np.random.default_rng(seed)
        h = scale * _signed_zero_hermitian(rng, dim)
        i, j = rng.integers(dim, size=2)
        bound = 1e-12 * max(1.0, float(np.max(np.abs(h))))
        x = h.copy()
        x[i, j] += 1j * excess * bound
        with pytest.raises(NonHermitianInput, match=r"x: max\|A - A\^H\|"):
            linalg.require_hermitian(x, "x")
        x = h.copy()
        x[i, j] = bad
        with pytest.raises(NonHermitianInput, match="x: entries are not"):
            linalg.require_hermitian(x, "x")

    def test_expm_igen_rejects_complex_diagonal(self):
        a = np.diag([1.0, 2.0 + 1e-6j, 3.0])
        with pytest.raises(NonHermitianInput):
            expm_igen(a, 0.5)
