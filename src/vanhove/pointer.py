"""Per-energy-shell diagonalization of equilibrium states.

After dephasing, a state is block diagonal in energy but generally mixed
over the degeneracy labels inside each shell.  Diagonalizing each shell
block yields the pointer basis: the vectors in which the equilibrium
state is fully diagonal.  Output is deterministic: eigenvalues sorted
descending, ties broken by the label of each vector's dominant component,
and every vector's dominant component phased real positive.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import _frozen

SHELL_HERMITICITY_TOL = 1e-12
TIE_TOL = 1e-12


@dataclass(frozen=True)
class ShellState:
    """One energy shell: Hermitian block over the degeneracy labels."""

    omega: float
    labels: tuple
    block: np.ndarray

    def __post_init__(self):
        block = _frozen(self.block, complex)
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "labels", tuple(self.labels))
        n = len(self.labels)
        if block.shape != (n, n):
            raise ValueError(
                f"shell block is {block.shape}, expected {(n, n)} for {n} labels"
            )

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.block - self.block.conj().T)))


@dataclass(frozen=True)
class PointerBasis:
    """Eigendecomposition of a shell block: descending eigenvalues and the
    unitary whose columns are the pointer vectors in label coordinates."""

    omega: float
    eigenvalues: np.ndarray
    unitary: np.ndarray
    labels: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _frozen(self.eigenvalues, float))
        object.__setattr__(self, "unitary", _frozen(self.unitary, complex))

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    def reconstruct(self) -> np.ndarray:
        u = self.unitary
        return (u * self.eigenvalues) @ u.conj().T

    def unitarity_defect(self) -> float:
        u = self.unitary
        return float(np.max(np.abs(u.conj().T @ u - np.eye(self.size))))


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude component (first such
    index on ties) is real and positive."""
    rows = np.argmax(np.abs(vecs), axis=0)
    pivot = vecs[rows, np.arange(vecs.shape[1])]
    cols = np.flatnonzero(pivot)  # a zero pivot is a zero column: it stays
    rows, pivot = rows[cols], pivot[cols]
    # hypot rounds as abs() of one complex scalar does; np.abs of an array
    # differs from it by an ulp at times
    size = np.hypot(pivot.real, pivot.imag)
    out = vecs.copy()
    out[:, cols] *= size / pivot
    out[rows, cols] = size  # the rotation leaves ~1e-19 of imaginary part
    return out


def diagonalize_shell(shell: ShellState) -> PointerBasis:
    """Eigendecompose one shell block into its pointer basis.

    Eigenvalues come out sorted descending; degenerate groups are ordered
    by the label of each eigenvector's dominant component so the result is
    a deterministic function of the input bits.

    Raises
    ------
    ValueError
        If the block is not Hermitian within 1e-12.
    """
    defect = shell.hermiticity_defect()
    if defect > SHELL_HERMITICITY_TOL:
        raise ValueError(
            f"shell at omega={shell.omega} has hermiticity defect {defect:.3e}"
        )
    block = 0.5 * (shell.block + shell.block.conj().T)
    vals, vecs = np.linalg.eigh(block)
    vals, vecs = vals[::-1], vecs[:, ::-1]

    # stable tie-break inside (numerically) degenerate groups
    scale = max(1.0, float(np.max(np.abs(vals))))
    order = list(range(vals.size))
    start = 0
    while start < vals.size:
        stop = start + 1
        while stop < vals.size and vals[start] - vals[stop] <= TIE_TOL * scale:
            stop += 1
        if stop - start > 1:
            def dominant_label(col):
                return shell.labels[int(np.argmax(np.abs(vecs[:, col])))]

            order[start:stop] = sorted(order[start:stop], key=dominant_label)
        start = stop
    vals, vecs = vals[order], vecs[:, order]

    return PointerBasis(
        omega=shell.omega,
        eigenvalues=vals,
        unitary=_fix_phases(vecs),
        labels=shell.labels,
    )


def pointer_state(shells: list[ShellState]) -> list[PointerBasis]:
    """Diagonalize every shell of an equilibrium state.

    Shells are independent blocks (no mixing between distinct energies).
    Total spectral weight is preserved shell by shell; a drift beyond
    1e-10 relative indicates a broken eigendecomposition and raises.
    """
    omegas = [s.omega for s in shells]
    if len(set(omegas)) != len(omegas):
        raise ValueError("shells must have distinct energies")
    bases = [diagonalize_shell(s) for s in shells]
    for shell, basis in zip(shells, bases):
        trace = float(np.trace(shell.block).real)
        drift = abs(float(basis.eigenvalues.sum()) - trace)
        if drift > 1e-10 * max(1.0, abs(trace)):
            raise ArithmeticError(
                f"shell omega={shell.omega}: eigenvalue sum drifted by {drift:.3e}"
            )
    return bases

