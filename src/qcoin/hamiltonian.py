"""Ising and quantum RBM instances and their unit spectra.

The coin's input state is maximally mixed, so everything the package
computes depends only on the eigenvalues of H.  ``unit_spectrum(spec)``
builds the ``Spectrum`` of H / L from the instance parameters with no
matrix.  Spectra are capped at MAX_QUBITS = 12 (N = 4096 values).

Qubit convention: qubit 0 is the leftmost tensor factor, i.e. the most
significant bit of the computational-basis index.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .record import Record, ValueRecord

MAX_QUBITS = 12
SPECTRUM_TOL = 1e-9  # relative slack when a spectrum is checked against a bound


def _check_qubit_count(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(
            f"n_qubits={n_qubits} is outside 1..{MAX_QUBITS}, the spectrum cap"
        )


def _z_values(n_qubits: int) -> np.ndarray:
    """Return the (N, n) array of Pauli-Z eigenvalues per basis state and qubit."""
    states = np.arange(2**n_qubits)
    bits = (states[:, None] >> (n_qubits - 1 - np.arange(n_qubits))[None, :]) & 1
    return 1.0 - 2.0 * bits


class Spectrum(Record):
    """Ascending, read-only eigenvalues of H / L: 2^n values in [-1, 1].

    ``norm_bound`` is the certified bound L that H was divided by, so
    Tr exp(-beta H) = Tr exp(-(L beta) H / L): inverse temperature beta
    runs the coin at L * beta on these values.
    """

    __slots__ = fields = ("values", "norm_bound")

    def __init__(self, values: np.ndarray, norm_bound: float) -> None:
        values = np.array(values, dtype=float)
        if values.ndim != 1 or len(values) < 2 or len(values) & (len(values) - 1):
            raise ValueError(f"a spectrum needs 2^n values, got shape {values.shape}")
        _check_qubit_count(len(values).bit_length() - 1)
        if np.any(np.diff(values) < 0):
            raise ValueError("spectrum values must be ascending")
        if not np.all(np.abs(values) <= 1.0 + SPECTRUM_TOL):
            raise ValueError("spectrum exceeds [-1, 1]; divide H by its norm bound")
        if not norm_bound > 0:
            raise ValueError(f"norm_bound must be positive, got {norm_bound}")
        values.setflags(write=False)
        self._set(values=values, norm_bound=norm_bound)

    @property
    def dim(self) -> int:
        return len(self.values)


class IsingSpec(ValueRecord):
    """Edge list of a random-graph Ising coupling model, H = sum J_ij Z_i Z_j.

    Every vertex must have degree >= 1, so n_qubits = 1 admits no valid spec.
    """

    __slots__ = fields = ("n_qubits", "edges", "seed")

    def __init__(
        self, n_qubits: int, edges: tuple[tuple[int, int, float], ...], seed: int
    ) -> None:
        if n_qubits < 2:
            raise ValueError(
                "IsingSpec needs n_qubits >= 2: a single qubit cannot satisfy "
                "the degree >= 1 requirement"
            )
        edges = tuple((int(i), int(j), float(w)) for i, j, w in edges)
        touched: set[int] = set()  # not [0] * n_qubits: a spec file sets n
        seen: set[frozenset[int]] = set()
        for i, j, _ in edges:
            if i == j:
                raise ValueError(f"self-loop edge ({i}, {j}) is not allowed")
            if not (0 <= i < n_qubits and 0 <= j < n_qubits):
                raise ValueError(f"edge ({i}, {j}) out of range for n={n_qubits}")
            key = frozenset((i, j))
            if key in seen:
                raise ValueError(f"duplicate undirected edge ({i}, {j})")
            seen.add(key)
            touched.update(key)
        if len(touched) < n_qubits:
            raise ValueError("every vertex must have degree >= 1")
        self._set(n_qubits=n_qubits, edges=edges, seed=seed)

    @property
    def norm_bound(self) -> float:
        """Sum of absolute coupling weights: a certified bound on ||H||."""
        return sum(abs(w) for _, _, w in self.edges)

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": "ising",
                "n_qubits": self.n_qubits,
                "edges": [[i, j, w] for i, j, w in self.edges],
                "seed": self.seed,
            }
        )


class QrbmSpec(Record):
    """Parameters of a quantum RBM Hamiltonian on visible + hidden qubits.

    H = -sum_i b_i Z_i - sum_{iv, jh} w_{iv,jh} Z_iv Z_jh - sum_jh gamma_jh X_jh,
    with visible qubits 0..n_visible-1 followed by the hidden qubits.  The
    transverse field acts on hidden units only.
    """

    __slots__ = fields = (
        "n_visible", "n_hidden", "couplings", "biases", "transverse_field", "seed"
    )

    def __init__(
        self,
        n_visible: int,
        n_hidden: int,
        couplings: np.ndarray,
        biases: np.ndarray,
        transverse_field: np.ndarray,
        seed: int,
    ) -> None:
        if n_visible < 1 or n_hidden < 1:
            raise ValueError("n_visible and n_hidden must be positive")
        couplings = np.atleast_2d(np.asarray(couplings, dtype=float))
        biases = np.asarray(biases, dtype=float).ravel()
        gamma = np.asarray(transverse_field, dtype=float).ravel()
        if couplings.shape != (n_visible, n_hidden):
            raise ValueError(
                f"couplings shape {couplings.shape} != ({n_visible}, {n_hidden})"
            )
        if biases.shape != (n_visible + n_hidden,):
            raise ValueError(f"biases must have length {n_visible + n_hidden}")
        if gamma.shape != (n_hidden,):
            raise ValueError(f"transverse_field must have length {n_hidden}")
        for arr in (couplings, biases, gamma):
            arr.setflags(write=False)
        self._set(n_visible=n_visible, n_hidden=n_hidden, couplings=couplings,
                  biases=biases, transverse_field=gamma, seed=seed)

    @property
    def n_qubits(self) -> int:
        return self.n_visible + self.n_hidden

    @property
    def norm_bound(self) -> float:
        """Sum of absolute Pauli coefficients: a certified bound on ||H||."""
        params = (self.biases, self.couplings, self.transverse_field)
        return sum(float(np.abs(a).sum()) for a in params)

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
    """Rebuild an IsingSpec or QrbmSpec from its JSON document.

    A document that is not a spec raises ValueError naming the bad field.
    """
    doc = json.loads(text)
    kind = _json_field(doc, "kind", str)
    if kind == "ising":
        n_qubits = _json_field(doc, "n_qubits", int)
        edges = _json_field(doc, "edges", list)
        for k, edge in enumerate(edges):
            if not (isinstance(edge, list) and len(edge) == 3
                    and all(_is_json_int(v) for v in edge[:2])
                    and _is_finite_number(edge[2])):
                raise ValueError(
                    f"spec field 'edges': entry {k} must be [i, j, weight] with "
                    f"integer i, j and a finite weight, got {edge!r}"
                )
        return IsingSpec(
            n_qubits=n_qubits,
            edges=tuple(edges),
            seed=_json_field(doc, "seed", int),
        )
    if kind == "qrbm":
        params = _json_field(doc, "params", dict)
        return QrbmSpec(
            n_visible=_json_field(params, "n_visible", int),
            n_hidden=_json_field(params, "n_hidden", int),
            couplings=_json_array(params, "couplings"),
            biases=_json_array(params, "biases"),
            transverse_field=_json_array(params, "transverse_field"),
            seed=_json_field(doc, "seed", int),
        )
    raise ValueError(f"unknown Hamiltonian kind {kind!r}")


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    try:
        return (_is_json_int(value) or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:  # an int past float64's range
        return False


def _json_field(doc, name: str, kind: type):
    """``doc[name]``; ValueError naming the field if it is absent or not a ``kind``."""
    if not isinstance(doc, dict):
        raise ValueError(f"spec must be a JSON object, got {type(doc).__name__}")
    if name not in doc:
        raise ValueError(f"spec field {name!r} is missing")
    value = doc[name]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"spec field {name!r} must be a JSON {kind.__name__}, "
                         f"got {value!r}")
    return value


def _json_array(doc: dict, name: str) -> np.ndarray:
    """The nested list ``doc[name]`` as a float array of finite values."""
    value = _json_field(doc, name, list)
    try:
        values = np.array(value, dtype=float)
    except OverflowError:  # an int past float64's range, which is no finite number
        values = np.array(math.inf)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"spec field {name!r} is not an array of numbers: {exc}"
        ) from None
    if not np.all(np.isfinite(values)):
        raise ValueError(f"spec field {name!r} must hold finite numbers")
    return values


def _ising_diagonal(spec: IsingSpec) -> np.ndarray:
    """Diagonal of sum_{(i,j) in edges} J_ij Z_i Z_j in the computational basis."""
    _check_qubit_count(spec.n_qubits)
    z = _z_values(spec.n_qubits)
    diag = np.zeros(2**spec.n_qubits)
    for i, j, w in spec.edges:
        diag += w * z[:, i] * z[:, j]
    return diag


def unit_spectrum(spec: IsingSpec | QrbmSpec) -> Spectrum:
    """Spectrum of H / L, L the norm bound (1 for H = 0), with no matrix.

    Ising H is diagonal.  QRBM H is block-diagonal over the visible z_v,
    each block -sum_v b_v z_v plus one-qubit terms -a_h Z_h - gamma_h X_h,
    a_h = b_h + sum_v w_vh z_v, with eigenvalues +-sqrt(a_h^2 + gamma_h^2).
    """
    if isinstance(spec, IsingSpec):
        values = _ising_diagonal(spec)
    elif isinstance(spec, QrbmSpec):
        _check_qubit_count(spec.n_qubits)
        z_visible = _z_values(spec.n_visible)
        a = spec.biases[spec.n_visible:] + z_visible @ spec.couplings
        radii = np.hypot(a, spec.transverse_field)
        hidden = (radii[:, None, :] * _z_values(spec.n_hidden)[None, :, :]).sum(axis=2)
        visible = -(z_visible @ spec.biases[: spec.n_visible])
        values = (visible[:, None] + hidden).ravel()
    else:
        raise TypeError(f"unsupported spec type {type(spec).__name__}")
    lam = spec.norm_bound or 1.0
    return Spectrum(np.sort(values) / lam, lam)


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
    _check_qubit_count(n_qubits)  # before [0] * n and the O(n^2) pair loop
    rng = np.random.default_rng(seed)
    degree = [0] * n_qubits
    ordered_pairs: list[tuple[int, int]] = []
    for i in range(n_qubits):
        if degree[i] > 0:
            continue
        isolated = [j for j in range(n_qubits) if j != i and degree[j] == 0]
        candidates = isolated if isolated else [j for j in range(n_qubits) if j != i]
        j = int(rng.choice(candidates))
        ordered_pairs.append((min(i, j), max(i, j)))
        degree[i] += 1
        degree[j] += 1
    forced = set(ordered_pairs)  # the pass below draws for every other pair once
    for i in range(n_qubits):
        for j in range(i + 1, n_qubits):
            if (i, j) not in forced and rng.random() < 0.5:
                ordered_pairs.append((i, j))
    weights = rng.standard_normal(len(ordered_pairs))
    edges = tuple((i, j, float(w)) for (i, j), w in zip(ordered_pairs, weights))
    return IsingSpec(n_qubits=n_qubits, edges=edges, seed=seed)


def generate_random_qrbm(n_visible: int, n_hidden: int, seed: int) -> QrbmSpec:
    """Random QRBM instance with all parameters i.i.d. standard normal."""
    # on the sum: a count below 1 is then rejected by numpy's draw or QrbmSpec
    _check_qubit_count(n_visible + n_hidden)
    rng = np.random.default_rng(seed)
    return QrbmSpec(
        n_visible=n_visible,
        n_hidden=n_hidden,
        couplings=rng.standard_normal((n_visible, n_hidden)),
        biases=rng.standard_normal(n_visible + n_hidden),
        transverse_field=rng.standard_normal(n_hidden),
        seed=seed,
    )
