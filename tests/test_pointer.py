import numpy as np
import pytest

from vanhove import ShellState, diagonalize_shell, pointer_state


def jacobi_eigh(matrix, max_sweeps=60, tol=1e-14):
    """Cyclic complex Jacobi sweeps; independent of the library path."""
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    for _ in range(max_sweeps):
        if np.max(np.abs(a - np.diag(np.diag(a)))) < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                phi = np.angle(apq)
                theta = 0.5 * np.arctan2(2.0 * abs(apq), (a[q, q] - a[p, p]).real)
                rot = np.eye(n, dtype=complex)
                c, s = np.cos(theta), np.sin(theta)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s * np.exp(1j * phi)
                rot[q, p] = -s * np.exp(-1j * phi)
                a = rot.conj().T @ a @ rot
                v = v @ rot
    vals = np.diag(a).real
    order = np.argsort(vals)[::-1]
    return vals[order], v[:, order]


def random_shell(rng, n, positive=False, omega=1.0):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    block = raw @ raw.conj().T if positive else 0.5 * (raw + raw.conj().T)
    return ShellState(omega, tuple(range(n)), block)


class TestDiagonalizeShell:
    def test_two_by_two_hand_oracle(self):
        # characteristic polynomial of [[.5,.2],[.2,.5]]: roots .7 and .3
        shell = ShellState(1.0, (0, 1), [[0.5, 0.2], [0.2, 0.5]])
        basis = diagonalize_shell(shell)
        assert np.allclose(basis.eigenvalues, [0.7, 0.3], atol=1e-14)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(basis.unitary[:, 0], [s, s], atol=1e-14)
        assert np.allclose(basis.unitary[:, 1], [s, -s], atol=1e-14)

    def test_identity_block_tie_breaking(self):
        n = 5
        shell = ShellState(0.0, tuple(range(n)), np.eye(n) / n)
        basis = diagonalize_shell(shell)
        assert np.allclose(basis.eigenvalues, 1.0 / n)
        assert np.array_equal(basis.unitary, np.eye(n))

    def test_diagonal_block_permutation(self):
        diag = [0.1, 0.6, 0.3]
        shell = ShellState(0.0, ("a", "b", "c"), np.diag(diag))
        basis = diagonalize_shell(shell)
        assert np.allclose(basis.eigenvalues, [0.6, 0.3, 0.1])
        perm = np.abs(basis.unitary)
        assert np.allclose(perm @ perm.T, np.eye(3))
        assert np.allclose(sorted(perm.ravel()), [0.0] * 6 + [1.0] * 3)

    def test_random_shells_match_jacobi_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            shell = random_shell(rng, 8)
            basis = diagonalize_shell(shell)
            ref_vals, _ = jacobi_eigh(shell.block)
            assert np.max(np.abs(basis.eigenvalues - ref_vals)) < 1e-10
            assert np.max(np.abs(basis.reconstruct() - shell.block)) < 1e-10

    def test_unitarity_and_phase_fixing(self):
        rng = np.random.default_rng(23)
        shell = random_shell(rng, 6)
        basis = diagonalize_shell(shell)
        assert basis.unitarity_defect() < 1e-10
        for col in range(6):
            v = basis.unitary[:, col]
            pivot = v[np.argmax(np.abs(v))]
            assert pivot.real > 0
            assert abs(pivot.imag) < 1e-12

    def test_non_hermitian_rejected(self):
        block = np.zeros((2, 2), dtype=complex)
        block[0, 1] = 1.0
        with pytest.raises(ValueError, match="hermiticity defect"):
            diagonalize_shell(ShellState(0.0, (0, 1), block))

    def test_trace_preserved(self):
        rng = np.random.default_rng(31)
        shell = random_shell(rng, 12)
        basis = diagonalize_shell(shell)
        assert basis.eigenvalues.sum() == pytest.approx(
            np.trace(shell.block).real, abs=1e-12
        )

    def test_unitary_invariance_of_spectrum(self):
        rng = np.random.default_rng(37)
        shell = random_shell(rng, 6)
        q, _ = np.linalg.qr(
            rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        )
        rotated = ShellState(shell.omega, shell.labels, q @ shell.block @ q.conj().T)
        a = diagonalize_shell(shell)
        b = diagonalize_shell(rotated)
        assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) < 1e-10
        # pointer vectors transform by the same unitary, up to the
        # per-column phase-fixing convention
        carried = q @ a.unitary
        for col in range(6):
            v = carried[:, col]
            pivot = v[np.argmax(np.abs(v))]
            carried[:, col] = v * (abs(pivot) / pivot)
        assert np.max(np.abs(carried - b.unitary)) < 1e-10

    def test_positivity_propagation(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            shell = random_shell(rng, 7, positive=True)
            # oracle: a Cholesky factorization exists iff the block is PSD
            np.linalg.cholesky(shell.block + 1e-13 * np.eye(7))
            basis = diagonalize_shell(shell)
            assert basis.eigenvalues.min() >= -1e-12

    def test_determinism(self):
        rng = np.random.default_rng(43)
        shell = random_shell(rng, 9)
        a = diagonalize_shell(shell)
        b = diagonalize_shell(ShellState(shell.omega, shell.labels, shell.block.copy()))
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.unitary, b.unitary)

    def test_degenerate_tie_break_by_dominant_label(self):
        # two degenerate eigenvectors concentrated on labels "x" < "y"
        block = np.diag([0.5, 0.5, 0.0])
        shell = ShellState(0.0, ("y", "x", "z"), block)
        basis = diagonalize_shell(shell)
        # tied pair ordered by dominant-component label: "x" (index 1) first
        assert np.argmax(np.abs(basis.unitary[:, 0])) == 1
        assert np.argmax(np.abs(basis.unitary[:, 1])) == 0

    def test_degenerate_tie_break_with_tuple_labels(self):
        # occupation-tuple labels, as produced by the Fock enumeration
        block = np.diag([0.25, 0.25, 0.5])
        shell = ShellState(1.0, ((0, 1), (1, 0), (1, 1)), block)
        basis = diagonalize_shell(shell)
        assert basis.eigenvalues[0] == 0.5
        # tied 0.25 pair ordered by label (0,1) < (1,0)
        assert np.argmax(np.abs(basis.unitary[:, 1])) == 0
        assert np.argmax(np.abs(basis.unitary[:, 2])) == 1


class TestPointerState:
    def test_distinct_omegas_required(self):
        shells = [
            ShellState(1.0, (0,), [[1.0]]),
            ShellState(1.0, (0,), [[1.0]]),
        ]
        with pytest.raises(ValueError):
            pointer_state(shells)

    def test_independent_per_shell(self):
        rng = np.random.default_rng(47)
        shells = [random_shell(rng, 3, omega=0.5), random_shell(rng, 4, omega=1.5)]
        bases = pointer_state(shells)
        solo = [diagonalize_shell(s) for s in shells]
        for got, ref in zip(bases, solo):
            assert np.array_equal(got.eigenvalues, ref.eigenvalues)
            assert np.array_equal(got.unitary, ref.unitary)

    def test_weight_preserved(self):
        rng = np.random.default_rng(53)
        shells = [random_shell(rng, 5, positive=True, omega=float(i)) for i in range(4)]
        total_in = sum(np.trace(s.block).real for s in shells)
        bases = pointer_state(shells)
        total_out = sum(b.eigenvalues.sum() for b in bases)
        assert abs(total_out - total_in) < 1e-10 * abs(total_in)
