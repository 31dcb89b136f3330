"""Numerical primitives: seeded Gaussian streams, standard-normal functions,
Cholesky factorization, and the smallest generalized eigenpair with derivative
support.

Special functions wrap scipy.special (erfc-based, accurate down to tail
probabilities of order 1e-16).  Linear algebra is dense numpy; problem sizes
here are a few to ~100 rows.  The eigenpair and derivative routines accept
stacked inputs (..., n, n) and broadcast over the leading axes.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy import special

from .model import _as_int


class NumericalError(ValueError):
    """A numerical routine failed on its input (not a usage error)."""


class NotPositiveDefiniteError(NumericalError):
    """Matrix expected to be SPD failed a Cholesky pivot."""


class RepeatedEigenvalueError(NumericalError):
    """Augmented eigen-derivative system was singular.

    This signals a repeated smallest eigenvalue; the derivative of a repeated
    eigenvalue is not defined by the simple-eigenvalue formula and is not
    silently perturbed here.
    """


class _PhiloxKey(ISeedSequence):
    """The Philox key (seed, stream), handed over as is.

    ``Philox(key=...)`` would also draw an OS-entropy seed sequence only to
    discard it, and reads a key list through ``np.asarray``, which rounds a list
    that mixes values below and from 2**63 through float64.
    """

    __slots__ = ("seed", "stream")

    def __init__(self, seed: int, stream: int):
        self.seed, self.stream = seed, stream

    def generate_state(self, n_words, dtype=np.uint64):
        return np.array([self.seed, self.stream], dtype=np.uint64)  # Philox's 2-word key


class RngStream:
    """Counter-based random stream: Philox4x64-10 via numpy's Generator.

    The pair (seed, stream) keys the generator, so identical pairs reproduce
    the identical sample sequence across runs and platforms.  Distinct stream
    ids select statistically independent Philox key sequences (full period
    2**128 each), so streams split for parallel chains never overlap, far
    beyond the 2**40 draws any chain makes here.

    A stream is single-owner: it may be handed to another thread, but must not
    be drawn from concurrently.
    """

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int, stream: int = 0):
        self.seed, stream = _as_int(seed, "seed"), _as_int(stream, "stream")
        self._gen = np.random.Generator(np.random.Philox(_PhiloxKey(self.seed, stream)))

    def split(self, stream: int) -> "RngStream":
        """Independent child stream of the same seed."""
        return RngStream(self.seed, stream)

    def standard_normal(self, size=None, out=None):
        """Draws of shape ``size``, or into the C-contiguous float64 array ``out``
        in place (and returned); the stream yields the same bits either way."""
        return self._gen.standard_normal(size, out=out)


def std_normal_pdf(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def std_normal_ccdf(z):
    """P(Z >= z); computed as ndtr(-z) so the far upper tail keeps precision."""
    return special.ndtr(-z)


def std_normal_ccdf_inv(p):
    """x such that P(Z >= x) = p, for p in (0, 1).

    Evaluated as -ndtri(p): the argument is used directly, so small p (deep
    upper tail) keeps full relative precision.
    """
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("tail probability must lie strictly inside (0, 1)")
    return -special.ndtri(p)


def cholesky_lower(r) -> np.ndarray:
    """Lower-triangular L with L L^T = r, for symmetric positive definite r.

    Column-by-column so that a non-positive pivot is reported with its index.
    ``PileResponse`` factors its correlation matrix here; LAPACK's factor of
    that matrix differs in the last bits, and so would every pile response.
    """
    if r.ndim != 2:
        raise ValueError("cholesky_lower expects a single matrix")
    n = r.shape[0]
    L = np.zeros_like(r)
    for j in range(n):
        d = r[j, j] - L[j, :j] @ L[j, :j]
        if not d > 0.0 or not np.isfinite(d):
            raise NotPositiveDefiniteError(f"matrix not positive definite (pivot {j})")
        L[j, j] = math.sqrt(d)
        if j + 1 < n:
            L[j + 1 :, j] = (r[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def smallest_gen_eigenpair(k, kg):
    """Minimum-eigenvalue pair (lam, u) of k u = lam kg u, kg SPD.

    Reduces via kg = L L^T to a standard symmetric problem and solves densely;
    robust at the small orders used here.  u is scaled to u^T kg u = 1 with the
    largest-magnitude component positive.  k and kg are stacks (..., n, n) of
    one shape; lam has shape (...), so a single pair gives a 0-d array.
    """
    try:
        L = np.linalg.cholesky(kg)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("kg not positive definite") from None
    # C = L^-1 k L^-T, symmetrized against roundoff
    t = np.linalg.solve(L, k)
    C = np.linalg.solve(L, np.swapaxes(t, -1, -2))
    C = 0.5 * (C + np.swapaxes(C, -1, -2))
    evals, evecs = np.linalg.eigh(C)
    lam = evals[..., 0]
    v = evecs[..., :, 0]
    u = np.linalg.solve(np.swapaxes(L, -1, -2), v[..., :, None])[..., 0]
    # enforce u^T kg u = 1 exactly and a deterministic sign
    q = np.einsum("...i,...ij,...j->...", u, kg, u)
    u = u / np.sqrt(q)[..., None]
    lead = np.take_along_axis(u, np.argmax(np.abs(u), axis=-1)[..., None], axis=-1)
    u = u * np.where(lead < 0.0, -1.0, 1.0)
    return lam, u


def eigen_derivative(k, kg, dk_da, dkg_da, lam, u):
    """d(lam)/d(alpha) of the generalized eigenproblem at a simple eigenpair.

    Solves the (n+1) x (n+1) augmented symmetric system

        [ k - lam kg   -kg u ] [ du/da  ]   [ -(dk - lam dkg) u ]
        [ -(kg u)^T      0   ] [ dl/da  ] = [  u^T dkg u / 2    ]

    by LU with partial pivoting.  The eigenvector must carry the scaling
    u^T kg u = 1 used by ``smallest_gen_eigenpair``; ``None`` stands for an
    absent dk/dkg.  lam and u are arrays as that routine returns them; the
    (..., n, n) matrices broadcast against them, and the result has the stack
    shape of kg u.
    """
    kg_u = np.einsum("...ij,...j->...i", kg, u)
    n = kg_u.shape[-1]
    dk = np.zeros((n, n)) if dk_da is None else dk_da
    dkg = np.zeros((n, n)) if dkg_da is None else dkg_da
    A = np.zeros(kg_u.shape[:-1] + (n + 1, n + 1))
    A[..., :n, :n] = k - lam[..., None, None] * kg
    A[..., :n, n] = -kg_u
    A[..., n, :n] = -kg_u
    rhs = np.zeros(kg_u.shape[:-1] + (n + 1,))
    rhs[..., :n] = -np.einsum("...ij,...j->...i", dk - lam[..., None, None] * dkg, u)
    rhs[..., n] = 0.5 * np.einsum("...i,...ij,...j->...", u, dkg, u)
    try:
        sol = np.linalg.solve(A, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise RepeatedEigenvalueError(
            "augmented eigen-derivative system is singular; "
            "the smallest eigenvalue appears to be repeated"
        ) from exc
    return sol[..., n]
