"""Independent numeric verification on a truncated number basis.

This module deliberately avoids the symbolic normal-ordering machinery:
operators are evaluated as literal matrix products on a finite basis, the
state is the geometric-weight density matrix held as rho = V diag(w) V^dagger,
and evolution exponentiates the truncated Hermitian Hamiltonian through its
eigendecomposition, keeping w and turning V.  Its only shared dependencies
with the algebra layer are expression evaluation for numeric coefficients
and the geometric-tail formula of `quantum`.

q and p are tridiagonal on this basis and a state holds their diagonals,
so the Hamiltonian and the moments read by `state_moments` are formed from
diagonals (`_band_product`).  An operator word is a literal product of
dense letters in written order.  Every trace is one sum over bands,
Tr(rho X) = sum_k sum_i rho[i, i+k] X[i+k, i] (`_trace`): a word of L
letters has bands |k| <= L only, which `_word_bands` reads from products
of `WORD_BLOCK`-level blocks, and rho's bands are read off the factor
(`_rho_bands`), a fresh state's rho being its weights on the diagonal.  So
a fresh state's trace holds O(n L) numbers at any cutoff, and an evolved
one's two n x n temporaries besides.  The other dense work is one
eigendecomposition per potential (kept on the state for later times) and
one product per evolution time, U itself.

numpy is imported inside the functions that use it, so it loads on the
first oracle call, not with `mepack`: the exact engine never needs it.

Cutoff policy: smallest N with the neglected weight tail below
`DEFAULT_TAIL_TOL`, plus a margin of max(8, 2*degree) basis states, since
a polynomial of degree d couples at most d bands.  A fresh state whose
bands and weights would exceed `MAX_MATRIX_BYTES`, and any n x n matrix
that would (an evolution, `rho`, `q_mat`), raise CutoffError before it is
allocated.
"""

from __future__ import annotations

import cmath
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

# levels whose word bands one product of a trace keeps
WORD_BLOCK = 128

# rows of the propagator that one product of an evolution step forms
STEP_ROWS = 128

# largest dense complex n x n matrix the oracle builds (n <= 2896), and the
# most a fresh state's bands and weights may hold; a fresh state holds no
# dense matrix and an evolved one its vectors, states from fock_evolve
# share the eigenvectors of the last Hamiltonian, and an evolved state's
# trace holds two more while it runs, an evolution step one or two
MAX_MATRIX_BYTES = 128 * 2 ** 20

Word = Union[str, Sequence[str]]


def choose_cutoff(nu: float, degree: int = 0) -> int:
    margin = max(8, 2 * degree)
    if nu == 1.0:
        return 1 + margin
    return tail_levels(nu, DEFAULT_TAIL_TOL) - 1 + margin


class FockState(NamedTuple):
    """q and p held as their diagonals {-1, 0, 1} on the packet-adapted
    number basis (`q_mat`, `p_mat` build them dense) and
    rho = V diag(weights) V^dagger; `vectors` V is None for a fresh state,
    whose V is the number basis itself."""

    cutoff: int
    nu: float
    hbar: float
    bindings: dict
    q_bands: dict
    p_bands: dict
    weights: np.ndarray
    # eigendecomposition of H for the last potential fock_evolve saw, keyed by
    # its numbers: a new dict per fock_state, which `_replace` shares (valid,
    # as the bands and hbar stay)
    eigh_cache: dict
    vectors: Optional[np.ndarray] = None
    leakage: float = 0.0  # top-band weight after the last evolution step

    @property
    def q_mat(self) -> np.ndarray:
        return _letter_matrix(self, 0)

    @property
    def p_mat(self) -> np.ndarray:
        return _letter_matrix(self, 1)

    @property
    def rho(self) -> np.ndarray:
        """The dense density matrix, derived on each access (one n^3
        product for an evolved state), for tests and references: no oracle
        function reads it, as every trace reads rho's bands off the factor."""
        import numpy as np

        _check_dense(self.cutoff)
        if self.vectors is None:
            return np.diag(self.weights).astype(complex)
        return (self.vectors * self.weights) @ self.vectors.conj().T

    @property
    def trace_deficit(self) -> float:
        # summed as complex numbers, in the order trace(rho) adds a complex
        # diagonal, so the printed deficit keeps its last bits
        return 1.0 - float(self.weights.astype(complex).sum().real)


def _letter_entries(b: dict, nu: float, eye, lower, raise_) -> tuple:
    """q's and p's entries where the identity, lowering and raising operators
    have entries `eye`, `lower`, `raise_`: Q 1 + s (a + a^dagger) and
    P 1 - i s (a - a^dagger) in elementwise numpy arithmetic, so that each
    entry has the bits of the dense sum, signed zeros included."""
    scale_q, scale_p = b["dQ"] / math.sqrt(nu), b["dP"] / math.sqrt(nu)
    return (b["Q"] * eye + scale_q * (lower + raise_),
            b["P"] * eye - 1j * scale_p * (lower - raise_))


def _check_bytes(n: int, nbytes: int, what: str) -> None:
    if nbytes > MAX_MATRIX_BYTES:
        raise CutoffError(
            f"cutoff {n} needs {nbytes / 2 ** 20:.0f} MiB {what}, over the "
            f"{MAX_MATRIX_BYTES / 2 ** 20:.0f} MiB limit"
        )


def _check_dense(n: int) -> None:
    """Refuse an n x n complex matrix over `MAX_MATRIX_BYTES`."""
    _check_bytes(n, 16 * n * n, "per dense matrix")


def _from_bands(bands: dict, n: int, fill=0j, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
    """Rows and columns [lo, hi) (all n by default) of the n x n matrix
    with diagonals `bands` (as `_band_product` holds them) and `fill`
    elsewhere."""
    import numpy as np

    hi = n if hi is None else hi
    _check_dense(hi - lo)
    m = np.full((hi - lo, hi - lo), fill, dtype=complex)
    for d, band in bands.items():
        # entry j of a band lies in row j - min(0, d); keep the rows and columns in range
        rows = np.arange(max(lo, lo - d), min(hi, hi - d)) - lo
        m[rows, rows + d] = band[rows + lo + min(0, d)]
    return m


def _letter_matrix(state: FockState, i: int, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
    """q (i = 0) or p (i = 1) as a dense matrix on levels [lo, hi)."""
    import numpy as np

    zero = np.zeros(1, dtype=complex)  # an entry of a and of a^dagger = conj(a)^T
    fill = _letter_entries(state.bindings, state.nu, np.zeros(1), zero, zero.conj())[i]
    return _from_bands((state.q_bands, state.p_bands)[i], state.cutoff, fill[0], lo, hi)


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
    # three complex diagonals each for q and p, and the float weights
    _check_bytes(n, 2 * 16 * (3 * n - 2) + 8 * n, "for its bands and weights")
    import numpy as np

    zero = np.zeros(1, dtype=complex)
    root = np.sqrt(np.arange(1, n)).astype(complex)  # a[i-1, i]
    # (identity, a, a^dagger) entries on each diagonal
    kinds = {-1: (np.zeros(1), zero, root.conj()), 0: (np.ones(n), zero, zero.conj()),
             1: (np.zeros(1), root, zero.conj())}
    bands = {d: _letter_entries(b, nu, *entries) for d, entries in kinds.items()}
    q_bands, p_bands = ({d: pair[i] for d, pair in bands.items()} for i in (0, 1))
    x = (nu - 1.0) / (nu + 1.0)
    weights = 2.0 / (nu + 1.0) * x ** np.arange(n)
    return FockState(n, nu, b["hbar"], b, q_bands, p_bands, weights, {})


def _word_matrix(state: FockState, word: Word, lo: int = 0,
                 hi: Optional[int] = None) -> np.ndarray:
    """The word's letters on levels [lo, hi) (all by default), multiplied
    in written order."""
    import numpy as np

    hi = state.cutoff if hi is None else hi
    letters = {"q": None, "p": None}  # each built on its first use
    out = None
    for letter in word:
        if letter not in letters:
            raise DomainError(f"unknown letter {letter!r} in operator word")
        if letters[letter] is None:
            letters[letter] = _letter_matrix(state, "qp".index(letter), lo, hi)
        out = letters[letter] if out is None else out @ letters[letter]
    return np.eye(hi - lo, dtype=complex) if out is None else out


def _word_bands(state: FockState, word: Word) -> dict:
    """The word's bands k -> W.diagonal(k), |k| <= L for a word of L letters,
    held as `_band_product` holds them, from blocks of `WORD_BLOCK` levels.
    q and p are tridiagonal, so W[i, i+k] sums paths of L one-level steps,
    which stay within L levels of entry j = min(i, i+k) of band k: each
    block multiplies the letters restricted to its levels and L more on each
    side, and keeps entry j of every band for its own levels j.  A block
    whose product reaches the top level keeps everything up to it, so a
    cutoff of at most WORD_BLOCK + L is one product of the whole basis."""
    import numpy as np

    n, reach = state.cutoff, len(word)
    out = {k: np.empty(n - abs(k), dtype=complex)
           for k in range(-min(reach, n - 1), min(reach, n - 1) + 1)}
    lo = 0
    while lo < n:
        start, stop = max(0, lo - reach), min(n, lo + WORD_BLOCK + reach)
        keep = n if stop == n else lo + WORD_BLOCK
        block = _word_matrix(state, word, start, stop)
        for k, band in out.items():
            top = min(keep, n - abs(k))
            band[lo:top] = block.diagonal(k)[lo - start:top - start]
        lo = keep
    return out


def _rho_bands(state: FockState, reach: int) -> dict:
    """rho's bands k -> rho.diagonal(k) for |k| <= reach, read off the
    factor: a fresh state's rho is its weights on the diagonal, an evolved
    one's is S S^dagger with S = V diag(sqrt(w)), so each band holds dot
    products of S's rows."""
    import numpy as np

    if state.vectors is None:
        return {0: state.weights}
    n, reach = state.cutoff, min(reach, state.cutoff - 1)
    s = state.vectors * np.sqrt(state.weights)
    s_conj = s.conj()
    # rho[i, i+k] = sum_j S[i, j] conj(S[i+k, j])
    rho = {k: np.einsum("ij,ij->i", s[:n - k], s_conj[k:]) for k in range(reach + 1)}
    rho.update({-k: rho[k].conj() for k in range(1, reach + 1)})
    return rho


def _trace(rho: dict, m: dict) -> complex:
    """Tr(rho M) = sum_k sum_i rho[i, i+k] M[i+k, i] from the bands of both,
    whose entries are both at i + min(0, k)."""
    parts = [(rho[k] * m[-k]).sum() for k in rho if -k in m]
    # summed from the first band, not from 0, which would drop a -0.0
    return complex(sum(parts[1:], parts[0]))


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
    cutoff is checked against X's degree before any product is built.  The
    words' bands, summed over X's terms, are traced against rho's bands up
    to X's degree, read off the factor.  A trace that is not finite raises
    OverflowError.
    """
    terms = _operator_terms(x)
    degree = max((len(word) for _, word in terms), default=0)
    needed = choose_cutoff(state.nu, degree)
    if state.cutoff < needed:
        raise CutoffError(
            f"cutoff {state.cutoff} too small for degree {degree}; need >= {needed}"
        )
    import numpy as np

    rho = _rho_bands(state, degree)
    total = {0: np.zeros(state.cutoff, dtype=complex)}  # X = 0 has no word to add a band
    with np.errstate(all="ignore"):  # a value past float range is reported below
        for coeff, word in terms:
            value = coeff.evaluate(state.bindings) if hasattr(coeff, "evaluate") else complex(coeff)
            for k, band in _word_bands(state, word).items():
                acc = total.setdefault(k, np.zeros_like(band))
                acc += value * band
        trace = _trace(rho, total)
    if not cmath.isfinite(trace):
        raise OverflowError(f"Tr(rho X) leaves float range: {trace}")
    return trace


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

    n, q, p = state.cutoff, state.q_bands, state.p_bands
    coeffs = [potential.coefficient(k) / math.factorial(k) for k in range(potential.degree + 1)]
    bands = {0: np.full(n, coeffs.pop(), dtype=complex)}
    for coeff in reversed(coeffs):  # Horner's rule
        bands = _band_product(bands, q, n)
        bands[0] += coeff
    for d, band in _band_product(p, p, n).items():
        bands[d] = bands.get(d, 0) + band / (2.0 * potential.mass_value())
    return _from_bands(bands, n)


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
    _check_dense(state.cutoff)
    import numpy as np

    key = (potential.mass_value(),
           tuple(potential.coefficient(k) for k in range(potential.degree + 1)))
    if key not in state.eigh_cache:
        state.eigh_cache.clear()
        state.eigh_cache[key] = np.linalg.eigh(hamiltonian_matrix(state, potential))
    h, e = state.eigh_cache[key]
    # conj(U) = conj(E) conj(diag(phase)) E^T, formed `STEP_ROWS` rows at a
    # time, so that no n x n temporary is made besides U
    phase = np.exp(-1j * h * float(t) / state.hbar).conj()
    u = np.empty_like(e)
    for r in range(0, state.cutoff, STEP_ROWS):
        rows = np.conj(e[r:r + STEP_ROWS])
        rows *= phase
        np.matmul(rows, e.T, out=u[r:r + STEP_ROWS])
    np.conjugate(u, out=u)
    vectors = u if state.vectors is None else u @ state.vectors
    leakage = float(np.sum(np.abs(vectors[-LEAK_BAND:]) ** 2 @ state.weights))
    if not leakage <= leak_tol:  # NaN counts as over
        raise HorizonError(
            f"truncation leakage {leakage:.3e} > {leak_tol:.1e} at t = {t}; "
            "raise the cutoff or shorten the horizon"
        )
    return state._replace(vectors=vectors, leakage=leakage)


def state_moments(state: FockState) -> PacketMoments:
    """Read (Q, P, dQ, dP) back off the factor, from rho's diagonal and
    first two off-diagonals (`_rho_bands`).  X - c, centred on X's diagonal,
    exactly Q or P, and (X - c)^2 are banded, so both means are O(n) sums,
    and far from the origin the spread is not lost."""
    n, rho = state.cutoff, _rho_bands(state, 2)

    def mean_and_spread(x: dict, c: float) -> Tuple[float, float]:
        y = {k: band - (c if k == 0 else 0) for k, band in x.items()}
        shift, square = (_trace(rho, m).real for m in (y, _band_product(y, y, n)))
        return c + shift, math.sqrt(square - shift * shift)

    q1, dq = mean_and_spread(state.q_bands, state.bindings["Q"])
    p1, dp = mean_and_spread(state.p_bands, state.bindings["P"])
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
