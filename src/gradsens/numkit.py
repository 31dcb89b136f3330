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
from scipy import special


class NumericalError(ValueError):
    """A numerical routine failed on its input (not a usage error)."""


class NotPositiveDefiniteError(NumericalError):
    """Matrix expected to be SPD failed a Cholesky pivot.

    ``pivot`` is the 0-based index of the failing pivot, or -1 when the
    factorization was batched and the offending slice was not isolated.
    """

    def __init__(self, pivot, message=None):
        self.pivot = pivot
        super().__init__(message or f"matrix not positive definite (pivot {pivot})")


class RepeatedEigenvalueError(NumericalError):
    """Augmented eigen-derivative system was singular.

    This signals a repeated smallest eigenvalue; the derivative of a repeated
    eigenvalue is not defined by the simple-eigenvalue formula and is not
    silently perturbed here.
    """


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

    __slots__ = ("seed", "stream", "_gen")

    def __init__(self, seed: int, stream: int = 0):
        if not 0 <= int(seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if not 0 <= int(stream) < 2**64:
            raise ValueError("stream id must fit in 64 bits")
        self.seed = int(seed)
        self.stream = int(stream)
        self._gen = np.random.Generator(np.random.Philox(key=[self.seed, self.stream]))

    def split(self, stream: int) -> "RngStream":
        """Independent child stream of the same seed."""
        return RngStream(self.seed, stream)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream={self.stream})"


def _as_sym_array(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.shape[-1] != a.shape[-2]:
        raise ValueError("expected square matrix")
    return a


def std_normal_pdf(z):
    z = np.asarray(z, dtype=float)
    out = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return out if out.ndim else float(out)


def std_normal_ccdf(z):
    """P(Z >= z); computed as ndtr(-z) so the far upper tail keeps precision."""
    out = special.ndtr(-np.asarray(z, dtype=float))
    return out if out.ndim else float(out)


def std_normal_ccdf_inv(p):
    """x such that P(Z >= x) = p, for p in (0, 1).

    Evaluated as -ndtri(p): the argument is used directly, so small p (deep
    upper tail) keeps full relative precision.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("tail probability must lie strictly inside (0, 1)")
    out = -special.ndtri(arr)
    return out if out.ndim else float(out)


def cholesky_lower(r) -> np.ndarray:
    """Lower-triangular L with L L^T = r, for symmetric positive definite r.

    Column-by-column so that a non-positive pivot is reported with its index.
    """
    a = _as_sym_array(r)
    if a.ndim != 2:
        raise ValueError("cholesky_lower expects a single matrix")
    n = a.shape[0]
    L = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - L[j, :j] @ L[j, :j]
        if not d > 0.0 or not np.isfinite(d):
            raise NotPositiveDefiniteError(j)
        L[j, j] = math.sqrt(d)
        if j + 1 < n:
            L[j + 1 :, j] = (a[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def smallest_gen_eigenpair(k, kg):
    """Minimum-eigenvalue pair (lam, u) of k u = lam kg u, kg SPD.

    Reduces via kg = L L^T to a standard symmetric problem and solves densely;
    robust at the small orders used here.  u is scaled to u^T kg u = 1 with the
    largest-magnitude component positive.  Accepts stacked (..., n, n) inputs.
    """
    K = _as_sym_array(k)
    Kg = _as_sym_array(kg)
    K, Kg = np.broadcast_arrays(K, Kg)
    try:
        L = np.linalg.cholesky(Kg)
    except np.linalg.LinAlgError:
        if Kg.ndim == 2:
            cholesky_lower(Kg)  # raises with the failing pivot index
        raise NotPositiveDefiniteError(-1, "kg not positive definite")
    # C = L^-1 K L^-T, symmetrized against roundoff
    t = np.linalg.solve(L, K)
    C = np.linalg.solve(L, np.swapaxes(t, -1, -2))
    C = 0.5 * (C + np.swapaxes(C, -1, -2))
    evals, evecs = np.linalg.eigh(C)
    lam = evals[..., 0]
    v = evecs[..., :, 0]
    u = np.linalg.solve(np.swapaxes(L, -1, -2), v[..., :, None])[..., 0]
    # enforce u^T kg u = 1 exactly and a deterministic sign
    q = np.einsum("...i,...ij,...j->...", u, Kg, u)
    u = u / np.sqrt(q)[..., None]
    lead = np.take_along_axis(u, np.argmax(np.abs(u), axis=-1)[..., None], axis=-1)
    u = u * np.where(lead < 0.0, -1.0, 1.0)
    if K.ndim == 2:
        return float(lam), u
    return lam, u


def eigen_derivative(k, kg, dk_da, dkg_da, lam, u):
    """d(lam)/d(alpha) of the generalized eigenproblem at a simple eigenpair.

    Solves the (n+1) x (n+1) augmented symmetric system

        [ k - lam kg   -kg u ] [ du/da  ]   [ -(dk - lam dkg) u ]
        [ -(kg u)^T      0   ] [ dl/da  ] = [  u^T dkg u / 2    ]

    by LU with partial pivoting.  The eigenvector must carry the scaling
    u^T kg u = 1 used by ``smallest_gen_eigenpair``; zero matrices are accepted
    for absent dk/dkg.  Accepts stacked inputs.
    """
    K = _as_sym_array(k)
    Kg = _as_sym_array(kg)
    n = K.shape[-1]
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
    dK = np.zeros((n, n)) if dk_da is None else _as_sym_array(dk_da)
    dKg = np.zeros((n, n)) if dkg_da is None else _as_sym_array(dkg_da)
    batch = np.broadcast_shapes(
        K.shape[:-2], Kg.shape[:-2], dK.shape[:-2], dKg.shape[:-2], u.shape[:-1], lam.shape
    )
    scalar = not batch and K.ndim == 2
    K = np.broadcast_to(K, batch + (n, n))
    Kg = np.broadcast_to(Kg, batch + (n, n))
    dK = np.broadcast_to(dK, batch + (n, n))
    dKg = np.broadcast_to(dKg, batch + (n, n))
    u = np.broadcast_to(u, batch + (n,))
    lam = np.broadcast_to(lam, batch)

    kg_u = np.einsum("...ij,...j->...i", Kg, u)
    A = np.zeros(K.shape[:-2] + (n + 1, n + 1))
    A[..., :n, :n] = K - lam[..., None, None] * Kg
    A[..., :n, n] = -kg_u
    A[..., n, :n] = -kg_u
    rhs = np.zeros(K.shape[:-2] + (n + 1,))
    rhs[..., :n] = -np.einsum("...ij,...j->...i", dK - lam[..., None, None] * dKg, u)
    rhs[..., n] = 0.5 * np.einsum("...i,...ij,...j->...", u, dKg, u)
    try:
        sol = np.linalg.solve(A, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise RepeatedEigenvalueError(
            "augmented eigen-derivative system is singular; "
            "the smallest eigenvalue appears to be repeated"
        ) from exc
    out = sol[..., n]
    return float(out) if scalar else out
