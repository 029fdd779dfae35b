"""Eigen-analysis of the swing model and closed-form orbit geometry.

The state matrix has the block form ``[[0, w_s I], [-1/2 H^-1 B, 0]]`` whose
spectrum is purely imaginary. Rather than calling a general nonsymmetric
eigensolver, the machine-space pencil ``(w_s/2) H^-1 B`` is symmetrized with
``H^(1/2)`` and solved with ``eigh``, which makes the decomposition
deterministic and yields exactly conjugate eigenvector pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, DimensionError
from .network import ReducedModel, read_only

# A modal frequency below this (rad/s) counts as zero.
MIN_FREQUENCY = 1e-6


@dataclass(frozen=True)
class Mode:
    pair: int                 # conjugate-pair index
    frequency: float          # rad/s (positive member of the pair)
    participation: np.ndarray  # per-machine participation magnitude, sums to 1

    def __post_init__(self):
        read_only(self)


@dataclass(frozen=True)
class ModalBasis:
    a: np.ndarray             # state matrix the basis diagonalizes
    m: np.ndarray             # 2m x 2m complex eigenvector matrix
    m_inv: np.ndarray
    eigenvalues: np.ndarray   # 2m complex, conjugate pairs adjacent (+j first)
    omega: np.ndarray         # m modal frequencies, rad/s (eigenvalues[0::2].imag)
    d: np.ndarray             # real positive definite
    e: np.ndarray             # real positive definite
    g: np.ndarray             # D + A^T E A, the switching function's quadratic form
    modes: tuple[Mode, ...]

    def __post_init__(self):
        read_only(self)

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    def modal_coords(self, center: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self.m_inv @ (np.asarray(x, dtype=float) - center)

    def pair_amplitudes(self, center: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Euclidean norm of the modal coordinates of each conjugate pair."""
        z = self.modal_coords(center, x)
        return np.sqrt(np.abs(z[0::2]) ** 2 + np.abs(z[1::2]) ** 2)


def analyze(model: ReducedModel) -> ModalBasis:
    """Diagonalize the swing model's state matrix.

    Raises :class:`DegenerateSpectrumError` when any modal frequency is
    below ``MIN_FREQUENCY`` (numerically zero): the closed-form orbit
    expressions require a nonzero spectrum. Repeated frequencies are fine:
    ``eigh`` gives an orthonormal basis of a repeated eigenspace too.
    """
    m = model.n_machines
    w_s = model.omega_s
    h_sqrt = np.sqrt(model.h)
    k_sym = 0.5 * w_s * (model.b_red / h_sqrt[:, None] / h_sqrt[None, :])
    sigma, w = np.linalg.eigh(k_sym)

    if sigma[0] <= 0.0 or np.sqrt(max(sigma[0], 0.0)) < MIN_FREQUENCY:
        raise DegenerateSpectrumError(
            f"zero (or negative) modal frequency: sigma_min = {sigma[0]:.3e}"
        )
    freqs = np.sqrt(sigma)

    # Machine-space eigenvectors of H^-1 B, deterministic sign.
    u = w / h_sqrt[:, None]
    for i in range(m):
        col = u[:, i]
        lead = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
        if col[lead] < 0.0:
            u[:, i] = -col

    big_m = np.empty((2 * m, 2 * m), dtype=complex)
    eigvals = np.empty(2 * m, dtype=complex)
    modes = []
    for i in range(m):
        wi = freqs[i]
        q = np.concatenate([u[:, i], 1j * wi / w_s * u[:, i]])
        q = q / np.linalg.norm(q)
        big_m[:, 2 * i] = q
        big_m[:, 2 * i + 1] = q.conj()
        eigvals[2 * i] = 1j * wi
        eigvals[2 * i + 1] = -1j * wi

    m_inv = np.linalg.inv(big_m)

    d = (m_inv.conj().T @ m_inv)
    lam_inv_sq = 1.0 / np.abs(eigvals) ** 2
    e = (m_inv.conj().T @ (lam_inv_sq[:, None] * m_inv))
    d = _project_real(d)
    e = _project_real(e)

    for i in range(m):
        # Participation magnitude per machine, angle and speed rows combined.
        p = np.abs(big_m[:m, 2 * i] * m_inv[2 * i, :m]) + np.abs(
            big_m[m:, 2 * i] * m_inv[2 * i, m:]
        )
        total = p.sum()
        modes.append(Mode(pair=i, frequency=freqs[i], participation=p / total))

    return ModalBasis(
        a=model.a,
        m=big_m,
        m_inv=m_inv,
        eigenvalues=eigvals,
        omega=freqs,
        d=d,
        e=e,
        g=d + model.a.T @ e @ model.a,
        modes=tuple(modes),
    )


def _project_real(mat: np.ndarray) -> np.ndarray:
    imag = np.abs(mat.imag).max()
    scale = max(np.abs(mat.real).max(), 1.0)
    if imag > 1e-9 * scale:
        raise DegenerateSpectrumError(
            f"orbit matrix has non-negligible imaginary part ({imag:.3e})"
        )
    return np.ascontiguousarray(mat.real)


def orbit(basis: ModalBasis, center: np.ndarray, x_start: np.ndarray):
    """Evaluator of the exact states along the orbit about ``center`` that
    starts at ``x_start``: it takes one offset ``dt`` in seconds (a ``(2m,)``
    state) or an array of offsets (one state each).

    The real form of ``c + M e^(Λ dt) M^-1 (x_start - c)``: the modal
    coordinates come in conjugate pairs, so with ``W = M[:, 0::2] ·
    (M^-1[0::2] (x_start - c))`` the state is
    ``c + cos(dt ω) (2 Re W)^T - sin(dt ω) (2 Im W)^T``. The weights
    ``2 Re W`` and ``2 Im W`` are computed once, here. As in the complex
    form, the deviation is summed before ``c`` is added."""
    w = basis.m[:, 0::2] * (basis.m_inv[0::2] @ (np.asarray(x_start, dtype=float) - center))
    re, im = 2.0 * w.real.T, 2.0 * w.imag.T

    def states(dt):
        phase = np.multiply.outer(dt, basis.omega)
        return center + (np.cos(phase) @ re - np.sin(phase) @ im)

    return states


def propagate(basis: ModalBasis, center: np.ndarray, x_start: np.ndarray,
              dt: float | np.ndarray) -> np.ndarray:
    """Exact state ``dt`` seconds ahead for dynamics centered at ``center``:
    :func:`orbit`'s states, for one offset or an array of offsets."""
    return orbit(basis, center, x_start)(dt)


def orbit_value(basis: ModalBasis, center: np.ndarray, x: np.ndarray) -> float | np.ndarray:
    """Conserved orbit amplitude ``(x-c)^T D (x-c) + xdot^T E xdot``.

    ``xdot`` is recomputed internally as ``A (x - center)`` so the two terms
    are always consistent; along any trajectory of the centered dynamics the
    value is constant and equals ``2 (x0-c)^T D (x0-c)``. Takes one ``(2m,)``
    state or a ``(k, 2m)`` stack (one value per state).
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (basis.n_states,):
        raise DimensionError(f"state has shape {x.shape}, expected (..., {basis.n_states})")
    dx = x - center
    xdot = dx @ basis.a.T
    return ((dx @ basis.d) * dx).sum(-1) + ((xdot @ basis.e) * xdot).sum(-1)


def modal_report(model: ReducedModel, basis: ModalBasis) -> dict:
    """JSON-friendly eigenvalue/participation summary."""
    pairs = []
    for mode in basis.modes:
        pairs.append(
            {
                "pair": mode.pair,
                "frequency_rad_s": mode.frequency,
                "frequency_hz": mode.frequency / (2.0 * np.pi),
                "eigenvalues": [f"+{mode.frequency:.6f}j", f"-{mode.frequency:.6f}j"],
                "participation": {
                    str(bus): float(p)
                    for bus, p in zip(model.machine_buses, mode.participation)
                },
            }
        )
    return {
        "n_machines": model.n_machines,
        "machine_buses": list(model.machine_buses),
        "modes": pairs,
    }
