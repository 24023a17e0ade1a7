import json
import re

import numpy as np
import pytest

from dense_oracle import Hamiltonian, build_ising, build_qrbm
from qcoin.hamiltonian import (
    IsingSpec,
    QrbmSpec,
    Spectrum,
    generate_random_ising_graph,
    generate_random_qrbm,
    spec_from_json,
    unit_spectrum,
)
from qcoin.oracle import exact_partition_function

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_chain(ops):
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def kron_ising(n, edges):
    """Independent construction of sum J_ij Z_i Z_j by explicit products."""
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i, j, w in edges:
        ops = [Z if q in (i, j) else I2 for q in range(n)]
        h += w * kron_chain(ops)
    return h


def test_ising_two_qubit_pair_is_z_tensor_z():
    spec = IsingSpec(n_qubits=2, edges=((0, 1, 1.0),), seed=0)
    h = build_ising(spec)
    assert np.array_equal(h.matrix, np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex))


def test_single_qubit_ising_impossible():
    with pytest.raises(ValueError):
        IsingSpec(n_qubits=1, edges=(), seed=0)


def test_ising_spec_validation():
    with pytest.raises(ValueError):
        IsingSpec(2, ((0, 0, 1.0),), seed=0)  # self loop
    with pytest.raises(ValueError):
        IsingSpec(2, ((0, 2, 1.0),), seed=0)  # out of range
    with pytest.raises(ValueError):
        IsingSpec(2, ((0, 1, 1.0), (1, 0, 2.0)), seed=0)  # duplicate
    with pytest.raises(ValueError):
        IsingSpec(3, ((0, 1, 1.0),), seed=0)  # vertex 2 isolated


def test_random_ising_instances_match_kron_oracle():
    for seed in range(5):
        spec = generate_random_ising_graph(4, seed)
        h = build_ising(spec)
        assert np.allclose(h.matrix, kron_ising(4, spec.edges), atol=1e-14)
        assert np.all(h.matrix == h.matrix.conj().T)
        assert np.all(h.matrix.imag == 0)
        assert np.count_nonzero(h.matrix - np.diag(np.diag(h.matrix))) == 0


def test_graph_generator_two_qubits_forced_edge():
    for seed in (0, 1, 99):
        spec = generate_random_ising_graph(2, seed)
        assert [(i, j) for i, j, _ in spec.edges] == [(0, 1)]


def test_graph_generator_deterministic():
    a = generate_random_ising_graph(5, 1234)
    b = generate_random_ising_graph(5, 1234)
    assert a == b
    assert generate_random_ising_graph(5, 1235) != a


def test_graph_generator_rejects_single_qubit():
    with pytest.raises(ValueError):
        generate_random_ising_graph(1, 0)


def test_graph_generator_degree_and_edge_frequency():
    # n = 4: the connectivity pass always places exactly 2 edges, the other
    # 4 candidate pairs are each included with probability 0.5
    n_seeds = 10_000
    total_edges = 0
    for seed in range(n_seeds):
        spec = generate_random_ising_graph(4, seed)
        degree = [0] * 4
        for i, j, _ in spec.edges:
            degree[i] += 1
            degree[j] += 1
        assert min(degree) >= 1
        total_edges += len(spec.edges)
    freq = (total_edges / n_seeds - 2.0) / 4.0
    assert 0.45 <= freq <= 0.55


def test_qrbm_all_zero_parameters():
    spec = QrbmSpec(1, 1, np.zeros((1, 1)), np.zeros(2), np.zeros(1), seed=0)
    h = build_qrbm(spec)
    assert np.all(h.matrix == 0)
    spectrum = unit_spectrum(spec)
    for beta in (0.0, 0.7, 3.0):
        z = exact_partition_function(spectrum, beta)
        assert z == pytest.approx(4.0, rel=1e-14)


def test_qrbm_single_pair_is_minus_z_tensor_z():
    spec = QrbmSpec(1, 1, np.array([[1.0]]), np.zeros(2), np.zeros(1), seed=0)
    h = build_qrbm(spec)
    assert np.array_equal(h.matrix, np.diag([-1.0, 1.0, 1.0, -1.0]).astype(complex))


def test_qrbm_matches_kron_oracle_with_transverse_field():
    rng = np.random.default_rng(5)
    spec = QrbmSpec(
        2, 2, rng.standard_normal((2, 2)), rng.standard_normal(4),
        rng.standard_normal(2), seed=5,
    )
    h = build_qrbm(spec)
    n = 4
    expected = np.zeros((16, 16), dtype=complex)
    for q in range(n):
        ops = [Z if r == q else I2 for r in range(n)]
        expected -= spec.biases[q] * kron_chain(ops)
    for iv in range(2):
        for jh in range(2):
            ops = [Z if r in (iv, 2 + jh) else I2 for r in range(n)]
            expected -= spec.couplings[iv, jh] * kron_chain(ops)
    for jh in range(2):
        ops = [X if r == 2 + jh else I2 for r in range(n)]
        expected -= spec.transverse_field[jh] * kron_chain(ops)
    assert np.allclose(h.matrix, expected, atol=1e-14)
    assert h.matrix.shape == (16, 16)
    assert np.allclose(h.matrix, h.matrix.conj().T, atol=1e-14)


def test_qrbm_nondiagonal_iff_transverse_field():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((2, 2))
    b = rng.standard_normal(4)
    diag_spec = QrbmSpec(2, 2, w, b, np.zeros(2), seed=0)
    off = build_qrbm(diag_spec).matrix - np.diag(np.diag(build_qrbm(diag_spec).matrix))
    assert np.count_nonzero(off) == 0
    tf_spec = QrbmSpec(2, 2, w, b, np.array([0.3, 0.0]), seed=0)
    h = build_qrbm(tf_spec)
    assert np.count_nonzero(h.matrix - np.diag(np.diag(h.matrix))) > 0


def test_qrbm_shape_mismatch_errors():
    with pytest.raises(ValueError):
        QrbmSpec(2, 2, np.zeros((2, 1)), np.zeros(4), np.zeros(2), seed=0)
    with pytest.raises(ValueError):
        QrbmSpec(2, 2, np.zeros((2, 2)), np.zeros(3), np.zeros(2), seed=0)
    with pytest.raises(ValueError):
        QrbmSpec(2, 2, np.zeros((2, 2)), np.zeros(4), np.zeros(1), seed=0)


def dense_unit_eigenvalues(spec):
    """Reference spectrum of H / L: the dense matrix's eigenvalues, divided by L."""
    h = build_qrbm(spec)
    return np.linalg.eigvalsh(h.matrix) / h.norm_bound


def test_rescale_identity_case():
    # L = 1 leaves the spectrum unscaled: Z tensor Z has eigenvalues -1, -1, 1, 1
    spectrum = unit_spectrum(IsingSpec(2, ((0, 1, 1.0),), seed=0))
    assert np.array_equal(spectrum.values, [-1.0, -1.0, 1.0, 1.0])
    assert spectrum.norm_bound == 1.0


def test_rescale_scalar_case():
    spectrum = unit_spectrum(IsingSpec(2, ((0, 1, 3.0),), seed=0))
    assert np.array_equal(spectrum.values, [-1.0, -1.0, 1.0, 1.0])
    assert spectrum.norm_bound == 3.0


def test_rescale_spectrum_inside_unit_interval():
    for seed in range(10):
        spectrum = unit_spectrum(generate_random_ising_graph(4, seed))
        assert np.abs(spectrum.values).max() <= 1.0 + 1e-12
        assert np.all(np.diff(spectrum.values) >= 0)


def test_rescale_preserves_partition_function():
    # Tr exp(-beta H) from the dense matrix equals Z of H / L at L * beta
    rng = np.random.default_rng(20)
    for seed in range(100):
        spec = generate_random_ising_graph(3, seed)
        beta = float(rng.uniform(0.0, 4.0))
        spectrum = unit_spectrum(spec)
        z1 = float(np.exp(-beta * np.diag(build_ising(spec).matrix).real).sum())
        z2 = exact_partition_function(spectrum, spectrum.norm_bound * beta)
        assert z2 == pytest.approx(z1, rel=1e-12)


def test_rescale_zero_norm_bound():
    zero = QrbmSpec(1, 1, np.zeros((1, 1)), np.zeros(2), np.zeros(1), seed=0)
    spectrum = unit_spectrum(zero)
    assert spectrum.norm_bound == 1.0 and np.all(spectrum.values == 0)
    with pytest.raises(ValueError, match="norm_bound"):
        Spectrum(np.zeros(4), 0.0)


def test_spectrum_validation():
    spectrum = Spectrum(np.array([-1.0, 0.5]), 2.0)
    assert (spectrum.dim.bit_length() - 1, spectrum.dim) == (1, 2)
    assert not spectrum.values.flags.writeable
    for bad in ([0.0], [0.0, 0.0, 0.0], np.zeros((2, 2)), [0.5, -0.5],
                [-1.5, 0.0], [0.0, np.nan]):
        with pytest.raises(ValueError):
            Spectrum(np.array(bad), 1.0)
    Spectrum(np.array([-1.0 - 1e-10, 1.0 + 1e-10]), 1.0)  # within SPECTRUM_TOL
    with pytest.raises(ValueError, match="cap"):
        Spectrum(np.zeros(2**13), 1.0)
    with pytest.raises(ValueError, match="cap"):
        unit_spectrum(generate_random_ising_graph(13, 0))
    with pytest.raises(ValueError, match="cap"):  # before any parameter is drawn
        generate_random_qrbm(10**6, 10**6, 0)


@pytest.mark.parametrize(
    "n_visible, n_hidden", [(1, 1), (2, 2), (3, 2), (2, 6), (5, 5)]
)
def test_qrbm_unit_spectrum_matches_dense_eigh(n_visible, n_hidden):
    for seed in range(3):
        spec = generate_random_qrbm(n_visible, n_hidden, seed)
        spectrum = unit_spectrum(spec)
        assert spectrum.dim.bit_length() - 1 == n_visible + n_hidden
        assert spectrum.norm_bound == build_qrbm(spec).norm_bound
        assert np.abs(spectrum.values - dense_unit_eigenvalues(spec)).max() <= 1e-13


def test_qrbm_unit_spectrum_with_zero_transverse_field():
    rng = np.random.default_rng(3)
    spec = QrbmSpec(2, 3, rng.standard_normal((2, 3)), rng.standard_normal(5),
                    np.array([0.7, 0.0, -0.4]), seed=3)
    error = unit_spectrum(spec).values - dense_unit_eigenvalues(spec)
    assert np.abs(error).max() <= 1e-13
    diagonal = QrbmSpec(2, 3, spec.couplings, spec.biases, np.zeros(3), seed=3)
    h = build_qrbm(diagonal)
    expected = np.sort(h.matrix.diagonal().real) / h.norm_bound
    assert np.abs(unit_spectrum(diagonal).values - expected).max() <= 1e-15


def test_eigensystem_identity_and_diagonal():
    evals, _ = Hamiltonian(np.eye(2, dtype=complex), 1, 1.0).eigensystem()
    assert np.allclose(evals, [1.0, 1.0])
    h = Hamiltonian(np.diag([-1.0, 0.0, 0.5, 1.0]).astype(complex), 2, 1.0)
    evals, evecs = h.eigensystem()
    assert np.allclose(evals, [-1.0, 0.0, 0.5, 1.0])
    assert np.linalg.norm(evecs.conj().T @ evecs - np.eye(4), ord=2) <= 1e-10


def test_eigensystem_reconstruction_residual():
    for seed in range(5):
        spec = generate_random_ising_graph(4, seed)
        h = build_ising(spec)
        evals, evecs = h.eigensystem()
        recon = (evecs * evals) @ evecs.conj().T
        scale = max(1.0, float(np.abs(evals).max()))
        assert np.linalg.norm(recon - h.matrix, ord=2) <= 1e-10 * scale
        assert np.all(np.diff(evals) >= 0)
        assert np.all(np.abs(evals.imag) == 0 if np.iscomplexobj(evals) else True)


def test_eigensystem_rejects_corrupted_decomposition(monkeypatch):
    h = build_qrbm(generate_random_qrbm(2, 2, 4))
    eigh = np.linalg.eigh

    def corrupted(matrix):
        evals, evecs = eigh(matrix)
        return evals + 1e-8, evecs

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    with pytest.raises(RuntimeError, match="residual"):
        h.eigensystem()


def test_ising_spectrum_is_bitwise_eigh():
    # unit_spectrum is the sorted diagonal over L, and eigh of the dense H / L
    # returns exactly those values: the Ising oracle agrees bit for bit
    for n in range(2, 9):
        for seed in range(3):
            spec = generate_random_ising_graph(n, seed)
            h = build_ising(spec)
            spectrum = unit_spectrum(spec)
            h_unit = Hamiltonian(h.matrix.real / h.norm_bound, n, 1.0)
            expected = np.sort(h.matrix.diagonal().real) / h.norm_bound
            assert spectrum.norm_bound == h.norm_bound
            assert np.array_equal(spectrum.values, expected)
            assert np.array_equal(spectrum.values, h_unit.eigensystem()[0])


def test_eigensystem_checks_norm_bound():
    with pytest.raises(ValueError, match="norm_bound"):
        Hamiltonian(np.diag([-2.0, 1.0]).astype(complex), 1, 1.0).eigensystem()


def test_ising_diagonal_partition_function_two_routes():
    for seed in range(5):
        spec = generate_random_ising_graph(4, seed)
        h = build_ising(spec)
        beta = 1.3
        z_diag = float(np.exp(-beta * np.diag(h.matrix).real).sum())
        spectrum = unit_spectrum(spec)
        z_eig = exact_partition_function(spectrum, spectrum.norm_bound * beta)
        assert z_eig == pytest.approx(z_diag, rel=1e-10)


def test_non_hermitian_rejected():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        Hamiltonian(m, 1, 1.0)


def test_dense_cap_rejects_large_n():
    with pytest.raises(ValueError):
        Hamiltonian(np.zeros((2**13, 2**13), dtype=complex), 13, 1.0)


def test_spec_json_round_trip():
    ising = generate_random_ising_graph(4, 17)
    back = spec_from_json(ising.to_json())
    assert back == ising
    assert np.array_equal(build_ising(back).matrix, build_ising(ising).matrix)

    qrbm = generate_random_qrbm(2, 2, 17)
    back_q = spec_from_json(qrbm.to_json())
    for name in qrbm.fields:
        assert np.array_equal(getattr(back_q, name), getattr(qrbm, name)), name
    assert back_q != qrbm  # a spec holding arrays compares by identity
    assert np.array_equal(build_qrbm(back_q).matrix, build_qrbm(qrbm).matrix)

    doc = json.loads(ising.to_json())
    assert doc["kind"] == "ising" and "edges" in doc and "seed" in doc
    with pytest.raises(ValueError):
        spec_from_json(json.dumps({"kind": "other"}))


ISING_DOC = {"kind": "ising", "n_qubits": 2, "edges": [[0, 1, 0.5]], "seed": 0}
QRBM_DOC = {"kind": "qrbm", "seed": 0, "params": {
    "n_visible": 1, "n_hidden": 1, "couplings": [[0.5]], "biases": [0.1, 0.2],
    "transverse_field": [0.3]}}


@pytest.mark.parametrize("doc, message", [
    ([], "spec must be a JSON object, got list"),
    ({"n_qubits": 2}, "spec field 'kind' is missing"),
    ({**ISING_DOC, "kind": None}, "spec field 'kind' must be a JSON str"),
    ({"kind": "ising"}, "spec field 'n_qubits' is missing"),
    ({**ISING_DOC, "n_qubits": "2"}, "spec field 'n_qubits' must be a JSON int"),
    ({**ISING_DOC, "edges": [[0, 1]]}, "spec field 'edges': entry 0"),
    ({**ISING_DOC, "edges": [[0, 1.5, 1.0]]}, "spec field 'edges': entry 0"),
    ({**ISING_DOC, "edges": [[0, 1, float("nan")]]}, "spec field 'edges': entry 0"),
    ({**ISING_DOC, "seed": True}, "spec field 'seed' must be a JSON int"),
    ({**ISING_DOC, "n_qubits": 10**15}, "every vertex must have degree >= 1"),
    ({**QRBM_DOC, "params": []}, "spec field 'params' must be a JSON dict"),
    ({**QRBM_DOC, "params": {**QRBM_DOC["params"], "couplings": [[{}]]}},
     "spec field 'couplings' is not an array of numbers"),
    ({**QRBM_DOC, "params": {**QRBM_DOC["params"], "biases": [0.1, None]}},
     "spec field 'biases' must hold finite numbers"),
    ({**QRBM_DOC, "params": {"n_visible": 1}}, "spec field 'n_hidden' is missing"),
], ids=["not-object", "no-kind", "kind-null", "ising-no-n", "n-string", "short-edge",
        "float-vertex", "nan-weight", "bool-seed", "huge-n", "params-list",
        "couplings-object", "biases-null", "no-n-hidden"])
def test_spec_from_json_names_the_bad_field(doc, message):
    assert type(spec_from_json(json.dumps(ISING_DOC))) is IsingSpec
    assert type(spec_from_json(json.dumps(QRBM_DOC))) is QrbmSpec
    with pytest.raises(ValueError, match=re.escape(message)):
        spec_from_json(json.dumps(doc))
