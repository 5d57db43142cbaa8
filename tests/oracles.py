"""Independent brute-force oracles shared by the unit and acceptance suites.

These deliberately avoid the package's fast paths: the circuit oracle
multiplies explicit 2^n x 2^n gate matrices, the kernel oracle computes one
entry from its own circuits, and the QP oracle solves the SVM dual by
projected gradient ascent.  Keep them simple and slow.  ``reference_smo`` is
the plain SMO loop that ``qkslab.svm.train`` must reproduce bit for bit,
``rbf_squared_distances`` the difference-tensor expression whose bits the
column-wise rbf distances must reproduce, ``reference_fidelity`` and
``reference_mirror`` the whole-array expressions whose bits the in-place
fidelity and mirror must reproduce, and ``reference_ptri_scores`` the
per-cell loop whose bits the shifted-slice PTRI must reproduce.
"""
import itertools
import warnings
from math import cos, sin, sqrt

import numpy as np

from qkslab.circuits import Circuit, Gate, GateKind
from qkslab.feature_maps import FeatureMapSpec, build_feature_map
from qkslab.simulator import sample_zero_count, simulate

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def _single_matrix(gate: Gate) -> np.ndarray:
    if gate.kind is GateKind.H:
        return _H
    if gate.kind is GateKind.RX:
        c, s = cos(gate.angle / 2), sin(gate.angle / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if gate.kind is GateKind.P:
        return np.array([[1, 0], [0, np.exp(1j * gate.angle)]], dtype=complex)
    raise ValueError(gate.kind)


def _embed(factors: dict[int, np.ndarray], n: int) -> np.ndarray:
    # little-endian: qubit 0 is the least-significant index bit, i.e. the
    # rightmost kron factor
    out = np.array([[1.0 + 0j]])
    for q in reversed(range(n)):
        out = np.kron(out, factors.get(q, np.eye(2, dtype=complex)))
    return out


def gate_matrix(gate: Gate, n: int) -> np.ndarray:
    if gate.kind is GateKind.CX:
        control, target = gate.qubits
        return _embed({control: _P0}, n) + _embed({control: _P1, target: _X}, n)
    return _embed({gate.qubits[0]: _single_matrix(gate)}, n)


def simulate_by_matrices(circuit: Circuit) -> np.ndarray:
    """Apply each gate's full matrix to |0...0>."""
    state = np.zeros(2**circuit.num_qubits, dtype=complex)
    state[0] = 1.0
    for gate in circuit.gates:
        state = gate_matrix(gate, circuit.num_qubits) @ state
    return state


def inverse(circuit: Circuit) -> Circuit:
    """U^dagger: gates reversed, angles negated (H and CX are self-inverse)."""
    return Circuit(circuit.num_qubits, tuple(Gate(g.kind, g.qubits, None if g.angle is None else -g.angle)
                                             for g in reversed(circuit.gates)))


def kernel_entry(spec: FeatureMapSpec, x, y, shots: int | None = None, entry_seed: int = 0) -> float:
    """One quantum kernel entry from its own circuits: |<psi(y)|psi(x)>|^2 of two simulated
    states, or with ``shots`` the seeded all-zeros count of U(y)^dagger U(x) over ``shots``."""
    ux, uy = build_feature_map(spec, x), build_feature_map(spec, y)
    if shots is None:
        overlap = np.vdot(simulate(uy).amplitudes, simulate(ux).amplitudes)
        return float(overlap.real**2 + overlap.imag**2)
    amp0 = simulate(Circuit(spec.num_features, ux.gates + inverse(uy).gates)).amplitudes[0]
    return sample_zero_count(float(amp0.real**2 + amp0.imag**2), shots, entry_seed) / shots


def rbf_squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of ``a`` and ``b`` from the full (n, m, F) difference
    tensor; ``qkslab.kernels._squared_distances`` must equal it bit for bit."""
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def reference_fidelity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a b^H|^2 from new arrays at every step; ``qkslab.kernels._fidelity`` must equal it bit for bit."""
    o = a @ b.conj().T
    return o.real**2 + o.imag**2


def reference_mirror(v: np.ndarray) -> np.ndarray:
    """The upper triangle of ``v`` mirrored onto the lower one as a sum of two ``triu`` copies;
    ``qkslab.kernels._mirror_upper`` must equal it bit for bit (the sum turns -0.0 into 0.0)."""
    return np.triu(v) + np.triu(v, 1).T


def reference_ptri_scores(z: np.ndarray) -> np.ndarray:
    """PTRI written as a per-cell loop over the up-to-8 neighbours, squaring float64 scalars;
    ``qkslab.experiment.ptri_scores`` must equal it bit for bit."""
    rows, cols = z.shape
    scores = np.zeros_like(z)
    for r in range(rows):
        for c in range(cols):
            acc = 0.0
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < rows and 0 <= cc < cols:
                        acc += (z[rr, cc] - z[r, c]) ** 2
            scores[r, c] = sqrt(acc)
    return scores


def random_circuit(rng: np.random.Generator, num_qubits: int, num_gates: int) -> Circuit:
    gates = []
    for _ in range(num_gates):
        kind = rng.choice(["H", "RX", "P", "CX"])
        if kind == "CX" and num_qubits < 2:
            kind = "H"
        if kind == "CX":
            control, target = rng.choice(num_qubits, size=2, replace=False)
            gates.append(Gate(GateKind.CX, (int(control), int(target))))
        else:
            q = int(rng.integers(num_qubits))
            angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            if kind == "H":
                gates.append(Gate(GateKind.H, (q,)))
            elif kind == "RX":
                gates.append(Gate(GateKind.RX, (q,), angle))
            else:
                gates.append(Gate(GateKind.P, (q,), angle))
    return Circuit(num_qubits, tuple(gates))


def svm_dual_objective(alpha: np.ndarray, K: np.ndarray, y: np.ndarray) -> float:
    return float(alpha.sum() - 0.5 * alpha @ ((K * np.outer(y, y)) @ alpha))


def solve_dual_exhaustive(K: np.ndarray, y: np.ndarray, C: float) -> np.ndarray:
    """Exact brute-force maximizer of the SVM dual over the feasible polytope.

    Enumerates every assignment of each variable to {lower, upper, free}
    (3^n cases, fine for n <= 8) and solves the equality-constrained QP on
    the free block; the optimum of a concave QP over the polytope is among
    these stationary candidates.
    """
    n = len(y)
    Q = K * np.outer(y, y)
    best_alpha = None
    best_w = -np.inf
    for code in itertools.product((0, 1, 2), repeat=n):
        alpha = np.zeros(n)
        free = [i for i, c in enumerate(code) if c == 2]
        for i, c in enumerate(code):
            if c == 1:
                alpha[i] = C
        if free:
            m = len(free)
            system = np.zeros((m + 1, m + 1))
            system[:m, :m] = Q[np.ix_(free, free)]
            system[:m, m] = y[free]
            system[m, :m] = y[free]
            rhs = np.zeros(m + 1)
            bound = [i for i in range(n) if i not in free]
            rhs[:m] = 1.0 - Q[np.ix_(free, bound)] @ alpha[bound]
            rhs[m] = -float(y[bound] @ alpha[bound])
            sol, _, _, _ = np.linalg.lstsq(system, rhs, rcond=None)
            if not np.allclose(system @ sol, rhs, atol=1e-8):
                continue  # inconsistent stationarity system for this face
            alpha[free] = sol[:m]
            if np.any(alpha[free] < -1e-10) or np.any(alpha[free] > C + 1e-10):
                continue
            alpha[free] = np.clip(alpha[free], 0.0, C)
        if abs(float(alpha @ y)) > 1e-8:
            continue
        w = svm_dual_objective(alpha, K, y)
        if w > best_w:
            best_w, best_alpha = w, alpha
    return best_alpha


_SMO_TAU = 1e-12
_SMO_MAX_ITER = 1_000_000


def reference_smo(K: np.ndarray, y: np.ndarray, C: float, tol: float):
    """The SMO loop written plainly: the criterion, both working-set masks and
    both masked candidate vectors are recomputed with ``np.where`` each step,
    and columns of K are read.  Returns ``(alphas, bias, n_iter, converged)``.
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of (1/2) a^T Q a - sum(a), Q_ij = y_i y_j K_ij
    pos = y > 0
    warned_indefinite = False
    converged = False
    iteration = 0

    for iteration in range(1, _SMO_MAX_ITER + 1):
        crit = -y * grad
        up = np.where(pos, alpha < C, alpha > 0)
        low = np.where(pos, alpha > 0, alpha < C)
        i = int(np.where(up, crit, -np.inf).argmax())
        j = int(np.where(low, crit, np.inf).argmin())
        violation = crit[i] - crit[j]
        if violation <= tol:
            converged = True
            break

        quad = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if quad <= 0:
            if not warned_indefinite:
                warnings.warn("gram matrix is not positive semidefinite; "
                              "clamping SMO steps to the box", RuntimeWarning, stacklevel=2)
                warned_indefinite = True
            quad = _SMO_TAU
        t_room_i = C - alpha[i] if pos[i] else alpha[i]
        t_room_j = alpha[j] if pos[j] else C - alpha[j]
        t = min(violation / quad, t_room_i, t_room_j)

        new_i = alpha[i] + y[i] * t
        new_j = alpha[j] - y[j] * t
        if t == t_room_i:  # land exactly on the box boundary
            new_i = C if pos[i] else 0.0
        if t == t_room_j:
            new_j = 0.0 if pos[j] else C
        grad += y * (y[i] * K[:, i]) * (new_i - alpha[i])
        grad += y * (y[j] * K[:, j]) * (new_j - alpha[j])
        alpha[i], alpha[j] = new_i, new_j
    if not converged:
        warnings.warn(f"SMO did not reach tol={tol} within {_SMO_MAX_ITER} iterations",
                      RuntimeWarning, stacklevel=2)

    margins = K @ (alpha * y)  # decision values without bias
    free = (alpha > 0) & (alpha < C)
    if free.any():
        bias = float(np.mean(y[free] - margins[free]))
    else:
        cand = y - margins
        lower = ((y > 0) & (alpha == 0)) | ((y < 0) & (alpha == C))
        upper = ((y > 0) & (alpha == C)) | ((y < 0) & (alpha == 0))
        b_lo = cand[lower].max() if lower.any() else -np.inf
        b_up = cand[upper].min() if upper.any() else np.inf
        bias = float((b_lo + b_up) / 2.0)
    return alpha, bias, iteration, converged
