import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
import scipy.linalg
from scipy.sparse.csgraph import connected_components

from invphase import linalg
from invphase.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NonHermitianInput,
)
from invphase.linalg import (OperatorMatrix, canonical_basis, comm_norm, eigh,
                             expm_igen)


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


def canonical_eigh(a):
    """``eigh`` with its eigenvectors in the gauge of ``canonical_basis``."""
    w, v = eigh(a)
    return w, canonical_basis(w, v)


class TestEigh:
    def test_pauli_x_convention(self):
        # Pauli X: eigenvalues (-1, 1),
        # eigenvectors (1,-1)/sqrt(2) then (1,1)/sqrt(2)
        w, v = canonical_eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
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
        w, v = canonical_eigh(np.eye(4))
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
        w1, v1 = canonical_eigh(d)
        w2, v2 = canonical_eigh(a)
        assert np.allclose(w1, w2, atol=1e-12)
        # same eigenvalue-1 subspace, canonically fixed basis -> same vectors
        assert np.allclose(v1[:, :2], v2[:, :2], atol=1e-9)

    def test_phase_convention_real_positive(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        a = a + a.conj().T
        _, v = canonical_eigh(a)
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
    """Canonical ``eigh`` with the scalar cluster scan and the per-column
    phase loop."""
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
    """``expm_igen`` with the elementwise diagonal test, through the
    canonical reference eigenvectors."""
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
    """``canonical_basis`` of ``eigh`` gives the reference loops' bits, and
    ``expm_igen`` (on LAPACK's eigenvectors) agrees with the canonical
    reference route to 1e-13, or both raise the same error.

    The canonical route takes a cluster's basis for its eigenvectors, so
    it drops up to ``|s|`` times the widest cluster's spread, which the
    bound allows on top."""
    got, ref = _outcome(expm_igen, a, s), _outcome(_reference_expm_igen, a, s)
    if isinstance(got[0], np.ndarray) and isinstance(ref[0], np.ndarray):
        w = np.linalg.eigvalsh(linalg.hermitize(a))
        b = linalg.cluster_bounds(w, 1e-9 * max(float(np.sqrt(w @ w)), 1.0))
        width = (w[b[1:] - 1] - w[b[:-1]]).max()
        expm_agrees = (np.abs(got[0] - ref[0]).max()
                       <= 1e-13 + abs(s) * width)
    else:
        expm_agrees = got == ref
    return (_same_outcome(_outcome(canonical_eigh, a),
                          _outcome(_reference_eigh, a)) and expm_agrees)


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
    """The vectorized canonicalization gives exactly what the loops gave;
    the exponential, on LAPACK's eigenvectors, agrees with their route."""

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


class TestHermitianPartRange:
    """The Hermitian part is ``A/2 + A^H/2``: halving first keeps a finite
    input finite near the float range, and elsewhere keeps the bits of
    ``(A + A^H)/2``."""

    @pytest.mark.parametrize("a", [
        np.array([[1e308, 0.0], [0.0, 1.0]]),
        np.array([[0.0, 1.2e308 - 1e307j], [1.2e308 + 1e307j, -1.7e308]])],
        ids=["diagonal", "off-diagonal"])
    def test_entries_near_the_float_range_stay_finite(self, a):
        # A + A^H overflows to inf (and inf - inf to nan) before halving
        for got in (linalg.require_hermitian(a, "x"), linalg.hermitize(a),
                    linalg.require_hermitian_stack(a[None],
                                                   lambda k: "x")[0]):
            assert np.isfinite(got).all()
            assert _same_bits(got, a.astype(complex))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 6), lead=st.integers(0, 3), data=st.data())
    def test_bits_of_the_summed_form_in_the_normal_range(self, dim, lead,
                                                         data):
        # every real and imaginary part +0.0 or of magnitude in
        # [2**-1021, 1e307]: the halves are exact and A + A^H is finite,
        # so both forms round the same exact sum once; below 2**-1021 a
        # half can lose a bit, and a -0.0 part can flip a zero's sign
        part = st.one_of(st.just(0.0), st.builds(
            lambda m, neg: -m if neg else m,
            st.floats(2.0 ** -1021, 1e307), st.booleans()))
        shape = (lead, dim, dim) if lead else (dim, dim)
        size = 2 * int(np.prod(shape))
        vals = np.array(data.draw(st.lists(part, min_size=size,
                                           max_size=size)))
        a = vals[0::2].reshape(shape) + 1j * vals[1::2].reshape(shape)
        ref = 0.5 * (a + a.conj().swapaxes(-1, -2))
        assert _same_bits(linalg.hermitize(a), ref)
        # the gate returns the same bits for an input that passes it: the
        # upper triangle mirrored, with a real diagonal
        h = a.copy()
        i, j = np.triu_indices(dim, 1)
        h[..., j, i] = a[..., i, j].conj()
        d = np.arange(dim)
        h[..., d, d] = a[..., d, d].real
        gated = linalg.require_hermitian_stack(h, lambda k: "x")
        assert _same_bits(gated, 0.5 * (h + h.conj().swapaxes(-1, -2)))


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


@st.composite
def block_patterns(draw):
    """Nonzero patterns of 1 to 6 connected blocks of 1 to 6 indices
    (1 x 1 blocks and a single component included), each block a random
    spanning chain plus random one-sided entries, indices shuffled."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = sum(sizes)
    pattern = np.zeros((d, d), dtype=bool)
    start = 0
    for k in sizes:
        block = rng.random((k, k)) < 0.3
        order = rng.permutation(k)
        block[order[:-1], order[1:]] = True
        pattern[start:start + k, start:start + k] = block
        start += k
    perm = rng.permutation(d)
    return pattern[perm][:, perm]


def _parent_component_labels(adjacency):
    """The component labelling the per-block code used (min-label
    propagation with pointer jumping), kept as a reference."""
    d = adjacency.shape[0]
    label = np.arange(d)
    while True:
        nxt = np.where(adjacency, label, d).min(axis=1, initial=d)
        nxt = np.minimum(label, nxt)
        nxt = nxt[nxt]
        if np.array_equal(nxt, label):
            return label
        label = nxt


def _parent_partition(pattern):
    """The schedule's own partition before ``linalg.block_partition``:
    per-size ``(k, n, n)`` flat indices, or ``None`` for one component."""
    comp = _parent_component_labels(pattern | pattern.T)
    if not comp.any():
        return None
    dim = comp.size
    flat = np.arange(dim * dim).reshape(dim, dim)
    by_size = {}
    for root in np.unique(comp).tolist():
        idx = np.flatnonzero(comp == root)
        by_size.setdefault(idx.size, []).append(flat[np.ix_(idx, idx)])
    return tuple(np.array(by_size[n]) for n in sorted(by_size))


def _parent_eigvalsh(a):
    """The per-block ``eigvalsh``: one solve per block of two or more
    indices, the real diagonal entry for a 1 x 1 block."""
    arr = np.asarray(a, dtype=complex)
    d = arr.shape[-1]
    pattern = (arr != 0).reshape(-1, d, d).any(axis=0)
    label = _parent_component_labels(pattern | pattern.T)
    if not label.any():
        return np.linalg.eigvalsh(linalg.hermitize(arr))
    sizes = np.bincount(label, minlength=d)
    single = np.flatnonzero(sizes[label] == 1)
    parts = [arr[..., single, single].real]
    for root in np.flatnonzero(sizes > 1).tolist():
        idx = np.flatnonzero(label == root)
        parts.append(np.linalg.eigvalsh(
            linalg.hermitize(arr[..., idx[:, None], idx])))
    return np.sort(np.concatenate(parts, axis=-1), axis=-1)


def _block_eigvalsh(a, blocks):
    """``parts_eigvalsh`` of the parts of a matrix or stack on ``blocks``."""
    arr = np.asarray(a, dtype=complex)
    return linalg.parts_eigvalsh(linalg.parts(arr, blocks), blocks)


def _union_eigvalsh(a):
    """:func:`_block_eigvalsh` on the partition of the stack's union
    nonzero pattern."""
    d = np.shape(a)[-1]
    return _block_eigvalsh(a, linalg.block_partition(
        (np.asarray(a) != 0).reshape(-1, d, d).any(axis=0)))


def _reference_tridiagonal_eigvalsh(a):
    """Eigenvalues of each tridiagonal matrix of a ``(..., n, n)`` stack
    through its real form, one matrix at a time: ``eigvalsh`` of the real
    symmetric tridiagonal matrix with diagonal ``Re a_ii`` and
    off-diagonals ``|(a_{i,i+1} + conj a_{i+1,i}) / 2|``."""
    arr = np.asarray(a, dtype=complex)
    n = arr.shape[-1]
    flat = arr.reshape(-1, n, n)
    out = np.empty(flat.shape[:-1])
    for k, m in enumerate(flat):
        t = np.zeros((n, n))
        for i in range(n):
            t[i, i] = m[i, i].real
        for i in range(n - 1):
            # numpy's complex modulus: Python's abs() can differ by an ulp
            t[i, i + 1] = t[i + 1, i] = np.abs(
                (m[i, i + 1] + np.conj(m[i + 1, i])) / 2)
        out[k] = np.linalg.eigvalsh(t)
    return out.reshape(arr.shape[:-1])


def _dense_tolerance(a):
    """``1e-13 (1 + ||a||_2)`` per matrix, broadcast over its eigenvalues."""
    return 1e-13 * (1 + np.linalg.norm(a, 2, axis=(-2, -1)))[..., None]


@st.composite
def tridiagonal_stacks(draw):
    """Hermitian tridiagonal matrices of dim 3 to 40, alone or in stacks
    with one or two leading axes.  Off-diagonals are random complex, some
    exactly zero; some draws plant near-degenerate pairs: the second half
    of the diagonal and off-diagonals repeats the first, shifted by 0 to
    1e-9 and joined by a coupling of 0 or 1e-10."""
    n = draw(st.integers(3, 40))
    lead = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    diag = rng.normal(size=lead + (n,))
    off = (rng.normal(size=lead + (n - 1,))
           + 1j * rng.normal(size=lead + (n - 1,)))
    off[rng.random(off.shape) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = 0
    if n >= 4 and draw(st.booleans()):
        m = n // 2
        diag[..., m:2 * m] = diag[..., :m] + draw(
            st.sampled_from([0.0, 1e-13, 1e-9]))
        off[..., m:2 * m - 1] = off[..., :m - 1]
        off[..., m - 1] = draw(st.sampled_from([0.0, 1e-10]))
    a = np.zeros(lead + (n, n), dtype=complex)
    i = np.arange(n)
    a[..., i, i] = diag
    a[..., i[:-1], i[1:]] = off
    a[..., i[1:], i[:-1]] = off.conj()
    return a


class TestTridiagonalEigvalsh:
    """A part that is tridiagonal in its data is solved through the real
    symmetric tridiagonal form of its Hermitian part; one entry off the
    band sends the whole part to the dense solve."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(a=tridiagonal_stacks(), data=st.data())
    def test_real_form_matches_the_dense_solve(self, a, data):
        n = a.shape[-1]
        got = linalg.parts_eigvalsh((a,), None)
        assert np.all(np.abs(got - np.linalg.eigvalsh(linalg.hermitize(a)))
                      <= _dense_tolerance(a))
        assert _same_bits(got, _reference_tridiagonal_eigvalsh(a))
        # the same matrices as the two parity blocks of a matrix of dim 2n,
        # the second block reversed (still tridiagonal)
        b = a[..., ::-1, ::-1]
        big = np.zeros(a.shape[:-2] + (2 * n, 2 * n), dtype=complex)
        big[..., ::2, ::2], big[..., 1::2, 1::2] = a, b
        blocks = linalg.block_partition(
            np.abs(np.subtract.outer(np.arange(2 * n), np.arange(2 * n)))
            % 2 == 0)
        assert [idx.shape for idx in blocks] == [(2, n, n)]
        w = linalg.parts_eigvalsh(linalg.parts(big, blocks), blocks)
        assert _same_bits(w, np.sort(np.concatenate(
            [_reference_tridiagonal_eigvalsh(a),
             _reference_tridiagonal_eigvalsh(b)], axis=-1), axis=-1))
        # one entry off the band, in one matrix, gives the whole stack the
        # dense solve's bits
        i = data.draw(st.integers(0, n - 3))
        j = data.draw(st.integers(i + 2, n - 1))
        k = data.draw(st.integers(0, max(a[..., 0, 0].size - 1, 0)))
        off_band = a.copy()
        off_band.reshape(-1, n, n)[k, i, j] = 0.25 - 0.5j
        assert _same_bits(linalg.parts_eigvalsh((off_band,), None),
                          np.linalg.eigvalsh(linalg.hermitize(off_band)))


class TestBlockEigvalsh:
    """``parts_eigvalsh`` on the partition of the union nonzero pattern
    solves each connected block and gives the spectrum of the dense
    solve."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mask=adjacency_masks())
    def test_labels_match_connected_components(self, mask):
        # each vertex's label read back from the blocks of block_partition
        labels = np.zeros(mask.shape[0], dtype=int)
        for group in linalg.block_partition(mask) or ():
            for block in group:
                idx = block[:, 0] // mask.shape[0]
                labels[idx] = idx.min()
        _, ref = connected_components(mask, directed=False)
        # the label of each vertex is the smallest vertex of its component
        smallest = np.array([np.flatnonzero(ref == r)[0] for r in ref])
        assert np.array_equal(labels, smallest)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(a=block_stacks())
    def test_matches_dense_on_permuted_block_stacks(self, a):
        dense = np.linalg.eigvalsh(a)
        tol = 1e-13 * (1 + np.linalg.norm(a, 2, axis=(1, 2)))[:, None]
        assert np.all(np.abs(_union_eigvalsh(a) - dense) <= tol)
        assert np.all(np.abs(_union_eigvalsh(a[0]) - dense[0]) <= tol[0])

    @pytest.mark.parametrize("dim", [1, 2, 9])
    def test_one_component_is_the_dense_solve(self, dim):
        # a dense stack, and a tridiagonal one (connected through a chain);
        # a chain of 3 or more rows is solved through its real tridiagonal
        # form: within rounding of the dense solve, with the bits of the
        # reference real-form solve
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
        chain = np.triu(np.tril(a, 1), -1)
        assert _same_bits(_union_eigvalsh(a),
                          np.linalg.eigvalsh(linalg.hermitize(a)))
        for x in (chain, chain[1]):
            dense = np.linalg.eigvalsh(linalg.hermitize(x))
            if dim < 3:
                assert _same_bits(_union_eigvalsh(x), dense)
                continue
            assert np.all(np.abs(_union_eigvalsh(x) - dense)
                          <= _dense_tolerance(x))
            assert _same_bits(_union_eigvalsh(x),
                              _reference_tridiagonal_eigvalsh(x))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pattern=block_patterns())
    def test_block_partition_is_the_schedules_partition(self, pattern):
        got = linalg.block_partition(pattern)
        ref = _parent_partition(pattern)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert len(got) == len(ref)
            assert all(g.dtype == r.dtype and np.array_equal(g, r)
                       for g, r in zip(got, ref))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(a=block_stacks(), drift=st.floats(-3e-15, 3e-15))
    def test_same_bits_as_the_per_block_solve(self, a, drift):
        # ~1e-15 of imaginary part on every diagonal: a 1 x 1 block's
        # eigenvalue is the real part, as the per-block solve took it
        a = a + 1j * drift * np.eye(a.shape[-1])
        assert _same_bits(_union_eigvalsh(a), _parent_eigvalsh(a))
        assert _same_bits(_union_eigvalsh(a[0]), _parent_eigvalsh(a[0]))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=block_stacks())
    def test_union_partition_serves_every_matrix(self, a):
        # the partition of the stack's union pattern, built once, gives each
        # matrix the bits that the stacked solve gives it
        blocks = linalg.block_partition((a != 0).any(axis=0))
        stacked = _union_eigvalsh(a)
        for k in range(a.shape[0]):
            assert _same_bits(_block_eigvalsh(a[k], blocks), stacked[k])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=block_stacks())
    def test_parts_of_a_stack_are_each_matrix_parts(self, a):
        # the parts reader, the mask and the sizes of one partition agree,
        # and the parts solve to the bits of each matrix's solve
        d = a.shape[-1]
        blocks = linalg.block_partition((a != 0).any(axis=0))
        stacked = linalg.parts(a, blocks)
        for k in range(a.shape[0]):
            for p, q in zip(stacked, linalg.parts(a[k], blocks)):
                assert _same_bits(p[k], q)
        w = linalg.parts_eigvalsh(stacked, blocks)
        for k in range(a.shape[0]):
            assert _same_bits(w[k], _block_eigvalsh(a[k], blocks))
        mask = linalg.block_mask(blocks, d)
        assert not np.any(a[:, ~mask])
        assert np.count_nonzero(mask) == sum(
            n * n for n in linalg.block_sizes(blocks, d))
        assert sum(linalg.block_sizes(blocks, d)) == d
        assert linalg.block_sizes(blocks, d) == sorted(
            linalg.block_sizes(blocks, d))

    def test_singletons_are_the_real_diagonal(self):
        # components {0}, {1, 3}, {2}; the singleton at 0 drops the
        # imaginary part of its diagonal entry, as hermitize does
        a = np.diag([3.0 + 2e-9j, -1.0, 0.0, 2.0])
        a[1, 3] = a[3, 1] = 0.5
        w = _union_eigvalsh(np.stack([a, np.zeros((4, 4))]))
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


class TestStackedExpm:
    """``expm_igen`` of a ``(k, d, d)`` stack: one stacked :func:`eigh`."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(k=st.integers(1, 5), dim=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), s=st.floats(-3.0, 3.0),
           degenerate=st.booleans())
    def test_stack_matches_matrix_calls(self, k, dim, seed, s, degenerate):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(k, dim, dim)) + 1j * rng.normal(
            size=(k, dim, dim))
        if degenerate:   # integer levels, most of them repeated
            q = np.linalg.qr(g)[0]
            w = rng.integers(-2, 3, size=(k, 1, dim)).astype(float)
            stack = linalg.hermitize((q * w) @ q.conj().swapaxes(1, 2))
        else:
            stack = linalg.hermitize(g) / dim
        got = expm_igen(stack, s, check_hermitian=False)
        assert got.shape == stack.shape
        for a, u in zip(stack, got):
            assert linalg.frob(u - _reference_expm_igen(a, s)) <= 1e-13
        assert _same_bits(expm_igen(stack, s), got)   # gate keeps the bits

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=hermitian_inputs(), k=st.integers(1, 4), data=st.data())
    def test_matrix_has_the_bits_of_its_stack_row(self, case, k, data):
        # an exactly diagonal matrix takes the entrywise path instead
        a, s = case
        assume(np.isfinite(a).all()
               and np.count_nonzero(a) != np.count_nonzero(np.diag(a)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        g = rng.normal(size=(k,) + a.shape) + 1j * rng.normal(
            size=(k,) + a.shape)
        stack = linalg.hermitize(g)
        row = data.draw(st.integers(0, k - 1))
        stack[row] = a
        for p, q in zip(eigh(a), eigh(stack)):
            assert _same_bits(p, q[row])
        assert _same_bits(expm_igen(a, s), expm_igen(stack, s)[row])

    def test_stack_gate_rejects_any_non_hermitian_member(self):
        stack = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
        with pytest.raises(NonHermitianInput, match="generator 1"):
            expm_igen(stack, 0.5)

    def test_stack_convergence_failure_is_wrapped(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("no convergence")
        monkeypatch.setattr(linalg.np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceFailure):
            expm_igen(np.stack([np.eye(2)] * 3), 0.5)

    def test_stack_goes_through_one_eigh_call(self, monkeypatch):
        shapes = []

        def counted(a, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, **kwargs)
        monkeypatch.setattr(linalg, "eigh", counted)
        stack = np.stack([np.array([[0.0, 1.0], [1.0, 0.0]])] * 3)
        expm_igen(stack, 0.5)
        assert shapes == [(3, 2, 2)]


class TestStackedEigh:
    """``eigh`` of a ``(k, d, d)`` stack: one LAPACK call, eigenvectors as
    LAPACK returns them."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(k=st.integers(1, 5), dim=st.integers(1, 10),
           seed=st.integers(0, 2**32 - 1))
    def test_stack_decomposes_each_matrix(self, k, dim, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(k, dim, dim)) + 1j * rng.normal(
            size=(k, dim, dim))
        stack = linalg.hermitize(g)
        w, v = eigh(stack)
        assert w.shape == (k, dim) and v.shape == (k, dim, dim)
        assert np.all(np.diff(w, axis=1) >= 0)
        for a, wk, vk in zip(stack, w, v):
            assert np.abs(wk - eigh(a)[0]).max() <= 1e-12 * max(dim, 1)
            assert linalg.frob(vk.conj().T @ vk - np.eye(dim)) <= 1e-13 * dim
            assert linalg.frob((vk * wk) @ vk.conj().T - a) <= 1e-12 * dim

    def test_stack_gate_names_the_member(self):
        stack = np.stack([np.eye(2), np.eye(2), np.triu(np.ones((2, 2)))])
        with pytest.raises(NonHermitianInput, match="eigh input 2 "):
            eigh(stack)
        w, _ = eigh(stack, check_hermitian=False)
        assert w.shape == (3, 2)

    def test_rank_above_three_is_rejected(self):
        with pytest.raises(DimensionMismatch):
            eigh(np.zeros((2, 2, 3, 3)))


class TestUnitarySchur:
    """``unitary_schur`` is ``scipy.linalg.schur(u, output="complex")``,
    bit for bit: the phases of the triangular factor's diagonal and the
    unitary factor."""

    @pytest.mark.parametrize("case", ["random", "near-scalar", "scalar",
                                      "polar"])
    def test_bits_of_the_complex_schur_form(self, case):
        rng = np.random.default_rng(17)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = linalg.hermitize(g)
        u = {
            "random": np.linalg.qr(g)[0],
            # a holonomy within 1e-9 of a phase times the identity, whose
            # eigenvectors are ill-conditioned
            "near-scalar": np.exp(0.7j) * expm_igen(h, 1e-9),
            "scalar": np.exp(-2.1j) * np.eye(2, dtype=complex),
            "polar": linalg.polar_unitary(g + 1e-3 * np.eye(3)),
        }[case]
        phases, q = linalg.unitary_schur(u)
        t, q_ref = scipy.linalg.schur(u, output="complex")
        assert _same_bits(q, q_ref)
        assert _same_bits(phases, np.angle(np.diag(t)))
        assert np.allclose((q * np.exp(1j * phases)) @ q.conj().T, u,
                           atol=1e-13)
