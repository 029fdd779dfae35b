"""Eigen-analysis of the swing model and closed-form orbit geometry, in real
pair coordinates.

The state matrix ``[[0, w_s I], [-1/2 H^-1 B, 0]]`` has the purely imaginary
spectrum ``±j w_i``. The machine-space pencil ``(w_s/2) H^-1 B`` is
symmetrized with ``H^(1/2)`` and solved with ``eigh``, deterministic and real.
Each mode shape ``u_i`` gives one pair ``(p_i, q_i)`` of a state deviation, its
angle and speed parts, which the dynamics turn at ``w_i`` as a point on a
circle (Kundur, *Power System Stability and Control*, 1994, ch. 12).
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
    pair: int                 # mode pair index
    frequency: float          # rad/s
    participation: np.ndarray  # per-machine participation h u^2, sums to 1

    def __post_init__(self):
        read_only(self)


@dataclass(frozen=True)
class ModalBasis:
    a: np.ndarray             # state matrix; pairs @ a @ from_pairs turns each pair
    omega: np.ndarray         # m modal frequencies, rad/s, ascending
    pairs: np.ndarray         # 2m x 2m: state deviation -> (p_0, q_0, p_1, q_1, ...)
    from_pairs: np.ndarray    # the inverse of ``pairs``
    modes: tuple[Mode, ...]

    def __post_init__(self):
        read_only(self)

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    def pair_amplitudes(self, center: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Norm of each pair's coordinates ``(p_i, q_i)`` of ``x - center``."""
        y = self.pairs @ (np.asarray(x, dtype=float) - center)
        return np.sqrt(y[0::2] ** 2 + y[1::2] ** 2)


def analyze(model: ReducedModel) -> ModalBasis:
    """Pair coordinates of the swing model: ``p_i = k_i u_i^T H (delta -
    delta_c)`` and ``q_i = (k_i / r_i) u_i^T H (w - w_c)``, with ``r_i = w_i /
    w_s``, so that ``d/dt (p_i, q_i) = w_i (q_i, -p_i)``.

    Raises :class:`DegenerateSpectrumError` when any modal frequency is
    below ``MIN_FREQUENCY`` (numerically zero): the closed-form orbit
    expressions require a nonzero spectrum. Repeated frequencies are fine:
    ``eigh`` gives an orthonormal basis of a repeated eigenspace too.
    """
    m, w_s = model.n_machines, model.omega_s
    h_sqrt = np.sqrt(model.h)
    k_sym = 0.5 * w_s * (model.b_red / h_sqrt[:, None] / h_sqrt[None, :])
    sigma, w = np.linalg.eigh(k_sym)

    if sigma[0] <= 0.0 or np.sqrt(max(sigma[0], 0.0)) < MIN_FREQUENCY:
        raise DegenerateSpectrumError(f"zero (or negative) modal frequency: "
                                      f"sigma_min = {sigma[0]:.3e}")
    freqs = np.sqrt(sigma)

    # Machine-space eigenvectors of H^-1 B, each with its leading entry positive.
    u = w / h_sqrt[:, None]
    lead = np.argmax(np.abs(u) > 1e-12 * np.abs(u).max(0), axis=0)
    u *= np.sign(u[lead, np.arange(m)])

    # k_i = |[u_i; j r_i u_i]| / sqrt 2: (p_i, -q_i) / sqrt 2 is the coordinate
    # on the unit-norm complex eigenvector [u_i; j r_i u_i] / n_i, so the orbit
    # value weighs the pairs as D = Re(M^-H M^-1) of that form does. Any other
    # weighting moves the switching function's level sets, and its roots.
    r = freqs / w_s
    k = np.sqrt((u * u).sum(0) * (1.0 + r * r) / 2.0)
    hu = (model.h[:, None] * u).T
    pairs = np.zeros((2 * m, 2 * m))
    pairs[0::2, :m] = k[:, None] * hu
    pairs[1::2, m:] = (k / r)[:, None] * hu
    from_pairs = np.zeros((2 * m, 2 * m))
    from_pairs[:m, 0::2] = u / k
    from_pairs[m:, 1::2] = u * (r / k)

    share = model.h[:, None] * u * u
    return ModalBasis(a=model.a, omega=freqs, pairs=pairs, from_pairs=from_pairs,
                      modes=tuple(Mode(i, freqs[i], share[:, i] / share[:, i].sum())
                                  for i in range(m)))


def orbit(basis: ModalBasis, center: np.ndarray, x_start: np.ndarray):
    """Evaluator of the exact states along the orbit about ``center`` that
    starts at ``x_start``: it takes one offset ``dt`` in seconds (a ``(2m,)``
    state) or an array of offsets (one state each).

    Each pair ``(p, q)`` of ``x_start - c`` turns to ``(p cos + q sin, q cos
    - p sin)`` of ``dt w``, so the state is ``c + cos(dt w) C + sin(dt w) S``,
    the rows ``C`` and ``S`` computed once, here, from ``from_pairs``."""
    y = basis.pairs @ (np.asarray(x_start, dtype=float) - center)
    p, q = y[0::2], y[1::2]
    to_p, to_q = basis.from_pairs[:, 0::2], basis.from_pairs[:, 1::2]
    cos_rows, sin_rows = (to_p * p + to_q * q).T, (to_p * q - to_q * p).T

    def states(dt):
        phase = np.multiply.outer(dt, basis.omega)
        return center + (np.cos(phase) @ cos_rows + np.sin(phase) @ sin_rows)

    return states


def propagate(basis: ModalBasis, center: np.ndarray, x_start: np.ndarray,
              dt: float | np.ndarray) -> np.ndarray:
    """Exact state ``dt`` seconds ahead for dynamics centered at ``center``:
    :func:`orbit`'s states, for one offset or an array of offsets."""
    return orbit(basis, center, x_start)(dt)


def orbit_value(basis: ModalBasis, center: np.ndarray, x: np.ndarray) -> float | np.ndarray:
    """Conserved orbit value ``2 |pairs (x - c)|^2``, twice the squared pair
    amplitudes about ``center`` summed. Takes one ``(2m,)`` state or a ``(k,
    2m)`` stack (one value per state)."""
    x = np.asarray(x)
    if x.shape[-1:] != (basis.n_states,):
        raise DimensionError(f"state has shape {x.shape}, expected (..., {basis.n_states})")
    y = (x - center) @ basis.pairs.T
    return 2.0 * (y * y).sum(-1)


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
