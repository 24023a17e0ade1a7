"""Dense-matrix test oracle for the spectrum path.

The package reads every quantity off the eigenvalues of H
(``qcoin.hamiltonian.unit_spectrum``).  Here H is a dense 2^n x 2^n matrix,
diagonalized by ``numpy.linalg.eigh``, on which the exact propagator and the
Chebyshev approximants of ``approximant.py`` act: an independent route for
the tests to compare against.  Dense storage is capped at DENSE_MAX_QUBITS = 12 (N = 4096).
Qubit 0 is the most significant bit of the computational-basis index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from approximant import ChebyshevApproximant, clenshaw
from qcoin.hamiltonian import (
    SPECTRUM_TOL,
    IsingSpec,
    QrbmSpec,
    Spectrum,
    _ising_diagonal,
    _z_values,
)

DENSE_MAX_QUBITS = 12


def _check_dense_qubit_count(n_qubits: int) -> None:
    if not 1 <= n_qubits <= DENSE_MAX_QUBITS:
        raise ValueError(
            f"n_qubits={n_qubits} is outside 1..{DENSE_MAX_QUBITS}, the dense cap"
        )


@dataclass
class Hamiltonian:
    """Dense Hermitian operator on n qubits with a certified norm bound.

    ``norm_bound`` is any certified upper bound on the spectral norm; the
    builders use the sum of absolute Pauli-term coefficients, which is cheap
    and always valid.
    """

    matrix: np.ndarray
    n_qubits: int
    norm_bound: float

    def __post_init__(self) -> None:
        _check_dense_qubit_count(self.n_qubits)
        matrix = np.asarray(self.matrix, dtype=np.complex128)
        dim = 2**self.n_qubits
        if matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match 2^{self.n_qubits}"
            )
        if not np.all(np.abs(matrix - matrix.conj().T) <= 1e-12):
            raise ValueError("matrix is not Hermitian to 1e-12 entrywise")
        if self.norm_bound < 0:
            raise ValueError("norm_bound must be non-negative")
        matrix.setflags(write=False)
        self.matrix = matrix

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvectors.

        The reconstruction residual R = V diag(w) V^dagger - H must satisfy
        max(||R||_1, ||R||_inf) <= 1e-10 * max(1, ||H||); that bound is at
        least ||R||_2 and needs no SVD.  Eigenvalues must respect norm_bound.
        """
        evals, evecs = np.linalg.eigh(self.matrix)
        resid = (evecs * evals) @ evecs.conj().T - self.matrix
        scale = max(1.0, float(np.abs(evals).max(initial=0.0)))
        resid_bound = float(
            max(np.linalg.norm(resid, 1), np.linalg.norm(resid, np.inf))
        )
        if resid_bound > 1e-10 * scale:
            raise RuntimeError(
                f"eigendecomposition residual {resid_bound:.3e} exceeds tolerance"
            )
        slack = SPECTRUM_TOL * max(1.0, self.norm_bound)
        if np.abs(evals).max(initial=0.0) > self.norm_bound + slack:
            raise ValueError(
                "certified norm_bound is smaller than the actual spectral norm"
            )
        return evals, evecs


def build_ising(spec: IsingSpec) -> Hamiltonian:
    """H = sum_{(i,j) in edges} J_ij Z_i Z_j as a dense matrix (diagonal, real)."""
    _check_dense_qubit_count(spec.n_qubits)
    matrix = np.diag(_ising_diagonal(spec).astype(np.complex128))
    return Hamiltonian(matrix, spec.n_qubits, spec.norm_bound)


def build_qrbm(spec: QrbmSpec) -> Hamiltonian:
    """Dense QRBM Hamiltonian; non-diagonal iff some transverse field is nonzero."""
    n = spec.n_qubits
    _check_dense_qubit_count(n)
    z = _z_values(n)
    z_visible, z_hidden = z[:, : spec.n_visible], z[:, spec.n_visible:]
    diag = -(z @ spec.biases) - ((z_visible @ spec.couplings) * z_hidden).sum(axis=1)
    matrix = np.diag(diag.astype(np.complex128))
    states = np.arange(2**n)
    for jh, gamma in enumerate(spec.transverse_field):
        # X on hidden qubit jh flips its bit in the basis index
        flipped = states ^ (1 << (n - 1 - (spec.n_visible + jh)))
        matrix[states, flipped] -= gamma
    return Hamiltonian(matrix, n, spec.norm_bound)


def exact_propagator(h: Hamiltonian, beta: float) -> np.ndarray:
    """exp(-beta H / 2) via the eigendecomposition."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    evals, evecs = h.eigensystem()
    return (evecs * np.exp(-beta * evals / 2.0)) @ evecs.conj().T


def _clenshaw_matrix(coeffs: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Sum of c_k T_k(A) for a Hermitian matrix A by matrix Clenshaw."""
    eye = np.eye(a.shape[0], dtype=a.dtype)
    b1 = np.zeros_like(a)
    b2 = np.zeros_like(a)
    for c in coeffs[:0:-1]:
        b1, b2 = c * eye + 2.0 * (a @ b1) - b2, b1
    return coeffs[0] * eye + a @ b1 - b2


def apply_approximant(
    approx: ChebyshevApproximant, h: Hamiltonian, method: str = "eigen"
) -> np.ndarray:
    """Evaluate the approximant on H, giving the matrix ftilde[H].

    ``method="eigen"`` applies the scalar polynomial to the eigenvalues;
    ``method="clenshaw"`` runs the Clenshaw recurrence on the matrix itself.
    The two routes agree to 1e-9 in spectral norm and exist as mutual checks.
    """
    evals, evecs = h.eigensystem()
    Spectrum(evals, 1.0)  # raises unless the eigenvalues lie in [-1, 1]
    if method == "eigen":
        values = clenshaw(approx.coefficients, evals)
        return (evecs * values) @ evecs.conj().T
    if method == "clenshaw":
        return _clenshaw_matrix(approx.coefficients, h.matrix)
    raise ValueError(f"unknown method {method!r}")
