"""Dense Hamiltonian construction: random-graph Ising and quantum RBM models.

Every Hamiltonian is a dense complex Hermitian matrix of dimension 2**n
together with a certified upper bound on its spectral norm.  The dense
representation is deliberate: an exact eigendecomposition must stay
available for every instance, which caps the supported size at
MAX_QUBITS = 12 (N = 4096).

Qubit convention: qubit 0 is the leftmost tensor factor, i.e. the most
significant bit of the computational-basis index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

MAX_QUBITS = 12
SPECTRUM_TOL = 1e-9  # relative slack when a spectrum is checked against a bound

PAULI_I = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def _z_values(n_qubits: int) -> np.ndarray:
    """Return the (N, n) array of Pauli-Z eigenvalues per basis state and qubit."""
    states = np.arange(2**n_qubits)
    bits = (states[:, None] >> (n_qubits - 1 - np.arange(n_qubits))[None, :]) & 1
    return 1.0 - 2.0 * bits


@dataclass
class Hamiltonian:
    """Dense Hermitian operator on n qubits with a certified norm bound.

    ``norm_bound`` is any certified upper bound on the spectral norm; the
    builders use the sum of absolute Pauli-term coefficients, which is cheap
    and always valid.  The spectrum and the eigendecomposition are computed
    on demand and cached.  Instances are treated as immutable after
    construction and are safe to share for reads.
    """

    matrix: np.ndarray
    n_qubits: int
    norm_bound: float
    _eigen: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )
    _spectrum: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {self.n_qubits}")
        if self.n_qubits > MAX_QUBITS:
            raise ValueError(
                f"n_qubits={self.n_qubits} exceeds the dense-storage cap of "
                f"{MAX_QUBITS} qubits (N = {2**MAX_QUBITS})"
            )
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

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def spectrum(self) -> np.ndarray:
        """Ascending real eigenvalues, computed once and cached (read-only).

        A diagonal matrix gives its sorted diagonal with no decomposition;
        any other matrix takes the eigenvalues of ``eigensystem()``.  Both
        routes check the eigenvalues against norm_bound.
        """
        if self._spectrum is None:
            diagonal = self.matrix.diagonal()
            if np.count_nonzero(self.matrix) == np.count_nonzero(diagonal):
                evals = np.sort(diagonal.real)
                self._check_norm_bound(evals)
            else:
                evals = self.eigensystem()[0]
            evals.setflags(write=False)
            self._spectrum = evals
        return self._spectrum

    def unit_spectrum(self) -> np.ndarray:
        """``spectrum()``, required to lie in [-1, 1] up to SPECTRUM_TOL."""
        evals = self.spectrum()
        if np.abs(evals).max(initial=0.0) > 1.0 + SPECTRUM_TOL:
            raise ValueError("spectrum exceeds [-1, 1]; rescale the Hamiltonian first")
        return evals

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvectors, computed once and cached.

        The reconstruction residual R = V diag(w) V^dagger - H must satisfy
        max(||R||_1, ||R||_inf) <= 1e-10 * max(1, ||H||); that bound is at
        least ||R||_2 and needs no SVD.  Eigenvalues must respect norm_bound.
        """
        if self._eigen is None:
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
            self._check_norm_bound(evals)
            self._eigen = (evals, evecs)
        return self._eigen

    def _check_norm_bound(self, evals: np.ndarray) -> None:
        slack = SPECTRUM_TOL * max(1.0, self.norm_bound)
        if np.abs(evals).max(initial=0.0) > self.norm_bound + slack:
            raise ValueError(
                "certified norm_bound is smaller than the actual spectral norm"
            )

    @property
    def eigen_cache(self) -> tuple[np.ndarray, np.ndarray] | None:
        return self._eigen


@dataclass(frozen=True)
class IsingSpec:
    """Edge list of a random-graph Ising coupling model, H = sum J_ij Z_i Z_j.

    Every vertex must have degree >= 1, so n_qubits = 1 admits no valid spec.
    """

    n_qubits: int
    edges: tuple[tuple[int, int, float], ...]
    seed: int

    def __post_init__(self) -> None:
        if self.n_qubits < 2:
            raise ValueError(
                "IsingSpec needs n_qubits >= 2: a single qubit cannot satisfy "
                "the degree >= 1 requirement"
            )
        object.__setattr__(
            self,
            "edges",
            tuple((int(i), int(j), float(w)) for i, j, w in self.edges),
        )
        degree = [0] * self.n_qubits
        seen: set[frozenset[int]] = set()
        for i, j, _ in self.edges:
            if i == j:
                raise ValueError(f"self-loop edge ({i}, {j}) is not allowed")
            if not (0 <= i < self.n_qubits and 0 <= j < self.n_qubits):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n_qubits}")
            key = frozenset((i, j))
            if key in seen:
                raise ValueError(f"duplicate undirected edge ({i}, {j})")
            seen.add(key)
            degree[i] += 1
            degree[j] += 1
        if any(d == 0 for d in degree):
            raise ValueError("every vertex must have degree >= 1")

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": "ising",
                "n_qubits": self.n_qubits,
                "edges": [[i, j, w] for i, j, w in self.edges],
                "seed": self.seed,
            }
        )


@dataclass(frozen=True)
class QrbmSpec:
    """Parameters of a quantum RBM Hamiltonian on visible + hidden qubits.

    H = -sum_i b_i Z_i - sum_{iv, jh} w_{iv,jh} Z_iv Z_jh - sum_jh gamma_jh X_jh,
    with visible qubits 0..n_visible-1 followed by the hidden qubits.  The
    transverse field acts on hidden units only.
    """

    n_visible: int
    n_hidden: int
    couplings: np.ndarray
    biases: np.ndarray
    transverse_field: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        if self.n_visible < 1 or self.n_hidden < 1:
            raise ValueError("n_visible and n_hidden must be positive")
        couplings = np.atleast_2d(np.asarray(self.couplings, dtype=float))
        biases = np.asarray(self.biases, dtype=float).ravel()
        gamma = np.asarray(self.transverse_field, dtype=float).ravel()
        if couplings.shape != (self.n_visible, self.n_hidden):
            raise ValueError(
                f"couplings shape {couplings.shape} != "
                f"({self.n_visible}, {self.n_hidden})"
            )
        if biases.shape != (self.n_visible + self.n_hidden,):
            raise ValueError(
                f"biases must have length {self.n_visible + self.n_hidden}"
            )
        if gamma.shape != (self.n_hidden,):
            raise ValueError(f"transverse_field must have length {self.n_hidden}")
        for name, arr in (("couplings", couplings), ("biases", biases),
                          ("transverse_field", gamma)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_qubits(self) -> int:
        return self.n_visible + self.n_hidden

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": "qrbm",
                "n_qubits": self.n_qubits,
                "params": {
                    "n_visible": self.n_visible,
                    "n_hidden": self.n_hidden,
                    "couplings": self.couplings.tolist(),
                    "biases": self.biases.tolist(),
                    "transverse_field": self.transverse_field.tolist(),
                },
                "seed": self.seed,
            }
        )


def spec_from_json(text: str) -> IsingSpec | QrbmSpec:
    """Rebuild an IsingSpec or QrbmSpec from its JSON document."""
    doc = json.loads(text)
    kind = doc.get("kind")
    if kind == "ising":
        return IsingSpec(
            n_qubits=doc["n_qubits"],
            edges=tuple((e[0], e[1], e[2]) for e in doc["edges"]),
            seed=doc["seed"],
        )
    if kind == "qrbm":
        params = doc["params"]
        return QrbmSpec(
            n_visible=params["n_visible"],
            n_hidden=params["n_hidden"],
            couplings=np.array(params["couplings"], dtype=float),
            biases=np.array(params["biases"], dtype=float),
            transverse_field=np.array(params["transverse_field"], dtype=float),
            seed=doc["seed"],
        )
    raise ValueError(f"unknown Hamiltonian kind {kind!r}")


def build_ising(spec: IsingSpec) -> Hamiltonian:
    """H = sum_{(i,j) in edges} J_ij Z_i Z_j as a dense matrix (diagonal, real)."""
    z = _z_values(spec.n_qubits)
    diag = np.zeros(2**spec.n_qubits)
    lam = 0.0
    for i, j, w in spec.edges:
        diag += w * z[:, i] * z[:, j]
        lam += abs(w)
    return Hamiltonian(np.diag(diag.astype(np.complex128)), spec.n_qubits, lam)


def build_qrbm(spec: QrbmSpec) -> Hamiltonian:
    """Dense QRBM Hamiltonian; non-diagonal iff some transverse field is nonzero."""
    n = spec.n_qubits
    dim = 2**n
    z = _z_values(n)
    diag = np.zeros(dim)
    for q in range(n):
        diag -= spec.biases[q] * z[:, q]
    for iv in range(spec.n_visible):
        for jh in range(spec.n_hidden):
            diag -= spec.couplings[iv, jh] * z[:, iv] * z[:, spec.n_visible + jh]
    matrix = np.diag(diag.astype(np.complex128))
    states = np.arange(dim)
    for jh, gamma in enumerate(spec.transverse_field):
        if gamma == 0.0:
            continue
        # X on hidden qubit jh flips its bit in the basis index
        flipped = states ^ (1 << (n - 1 - (spec.n_visible + jh)))
        matrix[states, flipped] -= gamma
    lam = (
        float(np.abs(spec.biases).sum())
        + float(np.abs(spec.couplings).sum())
        + float(np.abs(spec.transverse_field).sum())
    )
    return Hamiltonian(matrix, n, lam)


def build_hamiltonian(spec: IsingSpec | QrbmSpec) -> Hamiltonian:
    if isinstance(spec, IsingSpec):
        return build_ising(spec)
    if isinstance(spec, QrbmSpec):
        return build_qrbm(spec)
    raise TypeError(f"unsupported spec type {type(spec).__name__}")


def generate_random_ising_graph(n_qubits: int, seed: int) -> IsingSpec:
    """Random Ising instance: connectivity pass plus independent 0.5 edges.

    First pass walks the vertices in order and connects each still-isolated
    vertex to a uniformly chosen partner, preferring other isolated vertices,
    so that no vertex is left unconnected (exactly ceil(n/2) forced edges).
    Every remaining pair is then added independently with probability 0.5.
    Weights are i.i.d. standard normal.  Deterministic in (n_qubits, seed).
    """
    if n_qubits < 2:
        raise ValueError("need n_qubits >= 2 to build a connected-degree graph")
    rng = np.random.default_rng(seed)
    present: set[frozenset[int]] = set()
    degree = [0] * n_qubits
    ordered_pairs: list[tuple[int, int]] = []
    for i in range(n_qubits):
        if degree[i] > 0:
            continue
        isolated = [j for j in range(n_qubits) if j != i and degree[j] == 0]
        candidates = isolated if isolated else [j for j in range(n_qubits) if j != i]
        j = int(rng.choice(candidates))
        present.add(frozenset((i, j)))
        ordered_pairs.append((min(i, j), max(i, j)))
        degree[i] += 1
        degree[j] += 1
    for i in range(n_qubits):
        for j in range(i + 1, n_qubits):
            if frozenset((i, j)) in present:
                continue
            if rng.random() < 0.5:
                present.add(frozenset((i, j)))
                ordered_pairs.append((i, j))
    weights = rng.standard_normal(len(ordered_pairs))
    edges = tuple((i, j, float(w)) for (i, j), w in zip(ordered_pairs, weights))
    return IsingSpec(n_qubits=n_qubits, edges=edges, seed=seed)


def generate_random_qrbm(n_visible: int, n_hidden: int, seed: int) -> QrbmSpec:
    """Random QRBM instance with all parameters i.i.d. standard normal."""
    rng = np.random.default_rng(seed)
    return QrbmSpec(
        n_visible=n_visible,
        n_hidden=n_hidden,
        couplings=rng.standard_normal((n_visible, n_hidden)),
        biases=rng.standard_normal(n_visible + n_hidden),
        transverse_field=rng.standard_normal(n_hidden),
        seed=seed,
    )


def rescale_to_unit_spectrum(h: Hamiltonian, beta: float) -> tuple[Hamiltonian, float]:
    """Map H -> H / norm_bound and beta -> norm_bound * beta.

    The rescaled spectrum lies in [-1, 1] and the partition function is
    invariant: Tr exp(-beta H) = Tr exp(-(L beta)(H / L)).  A norm bound of
    zero is accepted only for the zero Hamiltonian, for which the identity
    rescale (scale 1) is used.
    """
    lam = h.norm_bound
    if lam <= 0.0:
        if np.any(h.matrix != 0):
            raise ValueError("norm_bound is 0 but the Hamiltonian is nonzero")
        lam = 1.0
    rescaled = Hamiltonian(h.matrix / lam, h.n_qubits, 1.0)
    return rescaled, lam * beta
