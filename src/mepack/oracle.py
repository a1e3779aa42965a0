"""Independent numeric verification on a truncated number basis.

This module deliberately avoids the symbolic normal-ordering machinery:
operators are evaluated as literal matrix products on a finite basis, the
state is the geometric-weight density matrix held as rho = V diag(w) V^dagger,
and evolution exponentiates the truncated Hermitian Hamiltonian through its
eigendecomposition, keeping w and turning V.  Its only shared dependencies
with the algebra layer are expression evaluation for numeric coefficients
and the geometric-tail formula of `quantum`.

q and p are tridiagonal on this basis, so the Hamiltonian, the moments read
by `state_moments` and a fresh state's Tr(rho X) are formed from diagonals
(`_band_product`).  The only O(n^3) work left is an operator word's literal
products, one eigendecomposition per potential (kept on the state for later
times) and one product per evolution time, U itself.

numpy is imported inside the functions that use it, so it loads on the
first oracle call, not with `mepack`: the exact engine never needs it.

Cutoff policy: smallest N with the neglected weight tail below
`DEFAULT_TAIL_TOL`, plus a margin of max(8, 2*degree) basis states, since
a polynomial of degree d couples at most d bands.  A cutoff whose dense matrices would
exceed `MAX_MATRIX_BYTES` raises CutoffError before anything is allocated.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Tuple, Union

from .algebra.weyl import WeylPolynomial
from .dynamics import PolynomialPotential, _finite_time
from .errors import CutoffError, DomainError, HorizonError
from .packets import PacketMoments
from .quantum import tail_levels, tail_weight

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TAIL_TOL = 1e-12

# top levels whose weight fock_evolve reports as truncation leakage
LEAK_BAND = 4

# largest dense complex n x n matrix the oracle builds (n <= 2896); a state
# holds q, p and, once evolved, its vectors, states from fock_evolve share
# the eigenvectors of the last Hamiltonian, and fock_state or fock_evolve
# holds about four more while it runs
MAX_MATRIX_BYTES = 128 * 2 ** 20

Word = Union[str, Sequence[str]]


def choose_cutoff(nu: float, degree: int = 0) -> int:
    margin = max(8, 2 * degree)
    if nu == 1.0:
        return 1 + margin
    return tail_levels(nu, DEFAULT_TAIL_TOL) - 1 + margin


class FockState(NamedTuple):
    """q, p as dense matrices on the packet-adapted number basis and
    rho = V diag(weights) V^dagger; `vectors` V is None for a fresh state,
    whose V is the number basis itself."""

    cutoff: int
    nu: float
    hbar: float
    bindings: dict
    q_mat: np.ndarray
    p_mat: np.ndarray
    weights: np.ndarray
    # eigendecomposition of H for the last potential fock_evolve saw, keyed by
    # its numbers: a new dict per fock_state, which `_replace` shares (valid,
    # as q_mat, p_mat and hbar stay)
    eigh_cache: dict
    vectors: Optional[np.ndarray] = None
    leakage: float = 0.0  # top-band weight after the last evolution step

    @property
    def rho(self) -> np.ndarray:
        """The dense density matrix, derived on each access (one n^3
        product for an evolved state); the oracle itself reads the factor."""
        import numpy as np

        if self.vectors is None:
            return np.diag(self.weights).astype(complex)
        return (self.vectors * self.weights) @ self.vectors.conj().T

    @property
    def trace_deficit(self) -> float:
        # summed as complex numbers, in the order trace(rho) adds a complex
        # diagonal, so the printed deficit keeps its last bits
        return 1.0 - float(self.weights.astype(complex).sum().real)


def fock_state(
    packet: PacketMoments,
    degree: int = 0,
    cutoff: Optional[int] = None,
) -> FockState:
    b = packet.bindings()
    packet.require_quantum()
    # the exact nu is at least 1 here; its float can round below 1
    nu = max(b["nu"], 1.0)
    n = cutoff if cutoff is not None else choose_cutoff(nu, degree)
    dropped = tail_weight(nu, n - 1)
    if dropped > DEFAULT_TAIL_TOL:
        raise CutoffError(
            f"cutoff {n} leaves weight tail {dropped:.3e} > {DEFAULT_TAIL_TOL:.1e}"
        )
    matrix_bytes = 16 * n * n
    if matrix_bytes > MAX_MATRIX_BYTES:
        raise CutoffError(
            f"cutoff {n} needs {matrix_bytes / 2 ** 20:.0f} MiB per dense matrix, over the "
            f"{MAX_MATRIX_BYTES / 2 ** 20:.0f} MiB limit (nu = {nu:.6g})"
        )
    import numpy as np

    lower = np.zeros((n, n), dtype=complex)
    idx = np.arange(1, n)
    lower[idx - 1, idx] = np.sqrt(idx)
    raise_ = lower.conj().T
    scale_q = b["dQ"] / math.sqrt(nu)
    scale_p = b["dP"] / math.sqrt(nu)
    q_mat = b["Q"] * np.eye(n) + scale_q * (lower + raise_)
    p_mat = b["P"] * np.eye(n) - 1j * scale_p * (lower - raise_)
    x = (nu - 1.0) / (nu + 1.0)
    weights = 2.0 / (nu + 1.0) * x ** np.arange(n)
    return FockState(n, nu, b["hbar"], b, q_mat, p_mat, weights, {})


def _word_matrix(state: FockState, word: Word) -> np.ndarray:
    import numpy as np

    letters = {"q": state.q_mat, "p": state.p_mat}
    out = None
    for letter in word:
        if letter not in letters:
            raise DomainError(f"unknown letter {letter!r} in operator word")
        out = letters[letter] if out is None else out @ letters[letter]
    return np.eye(state.cutoff, dtype=complex) if out is None else out


def _operator_terms(x) -> list:
    """(coefficient, word) pairs of X, each word a sequence of letters."""
    if isinstance(x, WeylPolynomial):
        return [(coeff, "q" * a + "p" * b) for (a, b), coeff in x.terms()]
    # iterable of (coefficient, word) pairs, evaluated in written word order
    return [(coeff, list(word)) for coeff, word in x]


def fock_expectation(state: FockState, x) -> complex:
    """Tr(rho X) with X evaluated by direct word-order matrix products.

    X may be a WeylPolynomial (its canonical words are literal products) or
    an iterable of (coefficient, word) pairs for arbitrary orderings.  The
    cutoff is checked against X's degree before any product is built.  A
    fresh state's rho is diagonal, so only the words' diagonals are summed;
    an evolved state's dense rho is rebuilt for each call, one more product.
    """
    terms = _operator_terms(x)
    degree = max((len(word) for _, word in terms), default=0)
    needed = choose_cutoff(state.nu, degree)
    if state.cutoff < needed:
        raise CutoffError(
            f"cutoff {state.cutoff} too small for degree {degree}; need >= {needed}"
        )
    import numpy as np

    fresh = state.vectors is None
    total = np.zeros(state.cutoff if fresh else state.q_mat.shape, dtype=complex)
    for coeff, word in terms:
        value = coeff.evaluate(state.bindings) if hasattr(coeff, "evaluate") else complex(coeff)
        product = _word_matrix(state, word)
        total += value * (product.diagonal() if fresh else product)
    if fresh:  # the terms and pairwise order of the dense sum below, less its zeros
        return complex((state.weights * total).sum())
    # Tr(rho M): row i of rho * M^T sums to (rho M)[i, i]
    return complex((state.rho * total.T).sum(axis=1).sum())


def _band_product(a: dict, b: dict, n: int) -> dict:
    """The diagonals of A @ B from those of the n x n A and B, each a dict
    k -> M.diagonal(k), whose entry i + min(0, k) is M[i, i+k]: (AB)[i, i+r+s]
    gains A[i, i+r] B[i+r, i+r+s] over the rows i that keep all in range, in
    O(n) per pair of diagonals.  Offsets at or beyond n are dropped."""
    import numpy as np

    out = {}
    for r, x in a.items():
        for s, y in b.items():
            k = r + s
            lo, hi = max(0, -r, -k), min(n, n - r, n - k)
            if lo < hi:
                band = out.setdefault(k, np.zeros(n - abs(k), dtype=complex))
                band[lo + min(0, k):hi + min(0, k)] += (
                    x[lo + min(0, r):hi + min(0, r)] * y[lo + r + min(0, s):hi + r + min(0, s)])
    return out


def hamiltonian_matrix(state: FockState, potential: PolynomialPotential) -> np.ndarray:
    """H = p^2 / 2m + V(q), its diagonals formed from those of p and q."""
    import numpy as np

    n = state.cutoff
    q, p = ({k: x.diagonal(k) for k in (-1, 0, 1)} for x in (state.q_mat, state.p_mat))
    coeffs = [potential.coefficient(k) / math.factorial(k) for k in range(potential.degree + 1)]
    bands = {0: np.full(n, coeffs.pop(), dtype=complex)}
    for coeff in reversed(coeffs):  # Horner's rule
        bands = _band_product(bands, q, n)
        bands[0] += coeff
    for d, band in _band_product(p, p, n).items():
        bands[d] = bands.get(d, 0) + band / (2.0 * potential.mass_value())
    h = np.zeros((n, n), dtype=complex)
    for d, band in bands.items():
        rows = np.arange(len(band)) - min(0, d)
        h[rows, rows + d] = band
    return h


def fock_evolve(
    state: FockState,
    potential: PolynomialPotential,
    t: float,
    leak_tol: float = 1e-8,
) -> FockState:
    """Evolve rho by U = exp(-i H t / hbar) of the truncated Hamiltonian.

    H is Hermitian, so U is built from its eigendecomposition
    H = E diag(h) E^dagger as U = E diag(exp(-i h t / hbar)) E^dagger,
    and U V (U for a fresh state) are the new vectors.  The
    eigendecomposition is kept on the state, so later times under the same
    potential reuse it.  The weight that reaches the top `LEAK_BAND` levels,
    sum_k w_k |V_ik|^2, estimates truncation leakage; exceeding `leak_tol`
    (or a NaN leakage) raises HorizonError.  A non-finite `t` raises
    DomainError before any numeric work.
    """
    _finite_time(t)
    import numpy as np

    key = (potential.mass_value(),
           tuple(potential.coefficient(k) for k in range(potential.degree + 1)))
    if key not in state.eigh_cache:
        state.eigh_cache.clear()
        state.eigh_cache[key] = np.linalg.eigh(hamiltonian_matrix(state, potential))
    h, e = state.eigh_cache[key]
    u = (e * np.exp(-1j * h * float(t) / state.hbar)) @ e.conj().T
    vectors = u if state.vectors is None else u @ state.vectors
    leakage = float(np.sum(np.abs(vectors[-LEAK_BAND:]) ** 2 @ state.weights))
    if not leakage <= leak_tol:  # NaN counts as over
        raise HorizonError(
            f"truncation leakage {leakage:.3e} > {leak_tol:.1e} at t = {t}; "
            "raise the cutoff or shorten the horizon"
        )
    return state._replace(vectors=vectors, leakage=leakage)


def state_moments(state: FockState) -> PacketMoments:
    """Read (Q, P, dQ, dP) back off the factor: rho = S S^dagger with
    S = V diag(sqrt(w)), so rho's diagonal and first two off-diagonals are
    dot products of S's rows (a fresh state's are w and zeros).  X - c,
    centred on X's diagonal, exactly Q or P, and (X - c)^2 are banded, so both
    means are O(n) sums, and far from the origin the spread is not lost."""
    import numpy as np

    n, rho = state.cutoff, {0: state.weights}
    if state.vectors is not None:
        s = state.vectors * np.sqrt(state.weights)
        rho = {k: (s[:n - k] * s[k:].conj()).sum(axis=1) for k in (0, 1, 2)}  # rho[i, i+k]
        rho.update({-k: rho[k].conj() for k in (1, 2)})

    def mean_and_spread(x: np.ndarray, c: float) -> Tuple[float, float]:
        y = {k: x.diagonal(k) - (c if k == 0 else 0) for k in (-1, 0, 1)}
        # Tr(rho M) = sum_k sum_i rho[i, i+k] M[i+k, i], both at entry i + min(0, k)
        shift, square = (float(sum((rho[k] * m[-k]).sum() for k in rho if -k in m).real)
                         for m in (y, _band_product(y, y, n)))
        return c + shift, math.sqrt(square - shift * shift)

    q1, dq = mean_and_spread(state.q_mat, state.bindings["Q"])
    p1, dp = mean_and_spread(state.p_mat, state.bindings["P"])
    return PacketMoments(q1, p1, dq, dp, hbar=state.hbar)


def state_entropy(state: FockState) -> float:
    """-Tr(rho ln rho) over the retained block, from rho's eigenvalues: the
    weights, which evolution keeps."""
    ent = 0.0
    for lam in state.weights:
        if lam > 1e-300:
            ent -= float(lam) * math.log(float(lam))
    return ent


# ---------------------------------------------------------------------------
# classical quadrature oracle
# ---------------------------------------------------------------------------


def gaussian_moment_numeric(packet: PacketMoments, a: int, b: int) -> float:
    """<q^a p^b> by Gauss-Hermite quadrature (exact at polynomial degree)."""
    if a < 0 or b < 0:
        raise DomainError("moment exponents must be non-negative")
    import numpy as np

    bd = packet.bindings()

    def axis_moment(mean: float, sd: float, n: int) -> float:
        nodes = n // 2 + 1
        x, w = np.polynomial.hermite.hermgauss(nodes)
        values = (mean + math.sqrt(2.0) * sd * x) ** n
        return float(np.dot(w, values) / math.sqrt(math.pi))

    return axis_moment(bd["Q"], bd["dQ"], a) * axis_moment(bd["P"], bd["dP"], b)
