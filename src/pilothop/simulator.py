"""Stochastic generation.

Event-driven correlated user activity, i.i.d. Rayleigh channels and the
per-pilot energy estimates of the finite-antenna measurement path, as
plain arrays: events (E, 2), activity (K,) int64, channels (T, ML, n),
energies (tau_p*T,). The infinite-antenna limit y = A alpha needs no
simulation; the harness forms it directly.

Convention: CN(0, s) has real and imaginary parts i.i.d. N(0, s/2).
Channels are redrawn independently in every coherence interval (block
fading). Energy estimates are NOT clipped at zero; the model noise from
noise subtraction can make entries negative and the solvers consume the
signed values.
"""
from __future__ import annotations

import numpy as np

from .sysmodel import SystemConfig, Topology, FadingProfile

MONTE_CARLO = "monte_carlo"
ASYMPTOTIC = "asymptotic"


def sample_events(config: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """(E, 2) event positions, i.i.d. uniform on the unit square."""
    return rng.random((config.E, 2))


def activation_probability(user_pos, event_pos, sigma_e2: float):
    """exp(-||x_k - e_i||^2 / (2 sigma_e^2)), broadcast over users/events."""
    user_pos = np.asarray(user_pos, dtype=float)
    event_pos = np.asarray(event_pos, dtype=float)
    d2 = np.sum((user_pos - event_pos) ** 2, axis=-1)
    return np.exp(-d2 / (2.0 * sigma_e2))


def sample_activity(
    topology: Topology, events: np.ndarray, config: SystemConfig, rng: np.random.Generator
) -> np.ndarray:
    """(K,) int64 activity in {0, 1}: user k is active if any event i fires
    it, independently with probability activation_probability(x_k, e_i)."""
    probs = activation_probability(
        topology.user_positions[:, None, :], events[None, :, :], config.sigma_e2
    )  # (K, E)
    fired = rng.random(probs.shape) < probs
    return fired.any(axis=1).astype(np.int64)


def _cn(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard circularly-symmetric complex Gaussian, unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def sample_channels(
    fading: FadingProfile,
    config: SystemConfig,
    rng: np.random.Generator,
    users: np.ndarray,
) -> np.ndarray:
    """i.i.d. Rayleigh fading: g_k^l ~ CN(0, beta_k^l I_M), fresh per interval.

    Returns g of shape (T, ML, n), complex: g[t][:, j] is the channel of
    user users[j] in coherence interval t, stacked base station by base
    station. Only the given users are sampled, so at scale only the (few)
    active ones are.
    """
    users = np.asarray(users, dtype=np.int64)
    n = users.shape[0]
    # per-antenna standard deviation, block of M rows per base station
    std = np.sqrt(np.repeat(fading.beta_per_bs[users].T, config.M, axis=0))  # (ML, n)
    return std[None, :, :] * _cn(rng, (config.T, config.ml, n))


def monte_carlo_energy(
    code: np.ndarray,
    activity: np.ndarray,
    fading: FadingProfile,
    config: SystemConfig,
    rng: np.random.Generator,
    noise_rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Energy vector y of the finite-antenna measurement path, flattened
    t-outer/pilot-inner like the measurement matrix rows.

    The pilot-phase signal of coherence interval t is the ML x tau_p matrix
    Y^t = sum_k alpha_k sqrt(tau_p p_k) g_k^t phi_{j(k,t)}^H + N^t, with
    phi_j the j-th standard basis vector, j(k, t) = code[k, t-1] and
    N^t ~ CN(0, sigma2) entrywise; y holds E_it = ||Y^t e_i||^2 / (ML) - sigma2.

    Channels are sampled for active users only; inactive users never enter
    the received signal. A separate noise stream may be supplied so channel
    and noise draws stay independent sub-streams of a trial.
    """
    if noise_rng is None:
        noise_rng = rng
    T, ml, tau_p = config.T, config.ml, config.tau_p
    active = np.flatnonzero(activity == 1)
    g = sample_channels(fading, config, rng, active)  # (T, ML, n)
    signal = g * np.sqrt(tau_p * fading.powers[active])
    Y = np.zeros((T, ml, tau_p), dtype=complex)
    # accumulate each active user's signal into its pilot's column, interval
    # by interval and in user order within an interval
    np.add.at(
        Y.transpose(0, 2, 1),
        (np.repeat(np.arange(T), active.size), code[active].T.ravel() - 1),
        signal.transpose(0, 2, 1).reshape(-1, ml),
    )
    # the real then the imaginary part of N^t, interval by interval
    z = noise_rng.standard_normal((T, 2, ml, tau_p))
    Y += np.sqrt(config.sigma2) * ((z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0))
    return (np.sum(np.abs(Y) ** 2, axis=1) / ml - config.sigma2).ravel()
