"""Stochastic generation.

Event-driven correlated user activity, i.i.d. Rayleigh channels, received
pilot-phase signals and per-pilot energy estimates. The infinite-antenna
limit y = A alpha needs no simulation; the harness forms it directly.

Convention: CN(0, s) has real and imaginary parts i.i.d. N(0, s/2).
Channels are redrawn independently in every coherence interval (block
fading). Energy estimates are NOT clipped at zero; the model noise from
noise subtraction can make entries negative and the solvers consume the
signed values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sysmodel import SystemConfig, Topology, FadingProfile, PilotHopCode

MONTE_CARLO = "monte_carlo"
ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class EventSet:
    positions: np.ndarray  # (E, 2) in [0,1]^2


@dataclass(frozen=True)
class ActivityVector:
    alpha: np.ndarray  # (K,) of {0,1}


def sample_events(config: SystemConfig, rng: np.random.Generator) -> EventSet:
    """E i.i.d. uniform points on the unit square."""
    return EventSet(rng.random((config.E, 2)))


def activation_probability(user_pos, event_pos, sigma_e2: float):
    """exp(-||x_k - e_i||^2 / (2 sigma_e^2)), broadcast over users/events."""
    user_pos = np.asarray(user_pos, dtype=float)
    event_pos = np.asarray(event_pos, dtype=float)
    d2 = np.sum((user_pos - event_pos) ** 2, axis=-1)
    return np.exp(-d2 / (2.0 * sigma_e2))


def activation_probabilities(topology: Topology, events: EventSet, sigma_e2: float) -> np.ndarray:
    """(K, E) matrix of per-(user, event) activation probabilities."""
    if events.positions.shape[0] == 0:
        return np.zeros((topology.user_positions.shape[0], 0))
    return activation_probability(
        topology.user_positions[:, None, :], events.positions[None, :, :], sigma_e2
    )


def sample_activity(
    topology: Topology, events: EventSet, config: SystemConfig, rng: np.random.Generator
) -> ActivityVector:
    """Independent Bernoulli(p_ki) per (user, event); active if any event fires."""
    probs = activation_probabilities(topology, events, config.sigma_e2)
    if probs.shape[1] == 0:
        return ActivityVector(np.zeros(config.K, dtype=np.int64))
    fired = rng.random(probs.shape) < probs
    return ActivityVector(fired.any(axis=1).astype(np.int64))


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


def received_pilot_signal(
    code: PilotHopCode,
    activity: ActivityVector,
    g: np.ndarray,
    users: np.ndarray,
    fading: FadingProfile,
    config: SystemConfig,
    rng: np.random.Generator,
    t: int,
) -> np.ndarray:
    """ML x tau_p pilot-phase signal of coherence interval t (1-based).

    Y^t = sum_k alpha_k sqrt(tau_p p_k) g_k^t phi_{j(k,t)}^H + N^t, with
    phi_j the j-th standard basis vector and g, users as sample_channels
    returns and takes them.
    """
    if not 1 <= t <= config.T:
        raise ValueError(f"t must be in 1..{config.T}, got {t}")
    active_cols = np.flatnonzero(activity.alpha[users] == 1)
    Y = np.zeros((config.ml, config.tau_p), dtype=complex)
    if active_cols.size:
        active = users[active_cols]
        amp = np.sqrt(config.tau_p * fading.powers[active])  # (n_act,)
        signal = g[t - 1][:, active_cols] * amp[None, :]  # (ML, n_act)
        hops = code.hops[active, t - 1] - 1
        np.add.at(Y.T, hops, signal.T)  # accumulate per-pilot columns
    noise = np.sqrt(config.sigma2) * _cn(rng, (config.ml, config.tau_p))
    return Y + noise


def energy_measurement(Y_t: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Per-pilot energy estimates E_it = ||Y^t e_i||^2 / (ML) - sigma2."""
    return np.sum(np.abs(Y_t) ** 2, axis=0) / config.ml - config.sigma2


def monte_carlo_energy(
    code: PilotHopCode,
    activity: ActivityVector,
    fading: FadingProfile,
    config: SystemConfig,
    rng: np.random.Generator,
    noise_rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Energy vector y of the full finite-antenna measurement path, flattened
    t-outer/pilot-inner like the measurement matrix rows.

    Channels are sampled for active users only; inactive users never enter
    the received signal. A separate noise stream may be supplied so channel
    and noise draws stay independent sub-streams of a trial.
    """
    if noise_rng is None:
        noise_rng = rng
    active = np.flatnonzero(activity.alpha == 1)
    g = sample_channels(fading, config, rng, active)
    y = np.empty(config.tau_p * config.T)
    for t in range(1, config.T + 1):
        Y_t = received_pilot_signal(code, activity, g, active, fading, config, noise_rng, t)
        y[(t - 1) * config.tau_p : t * config.tau_p] = energy_measurement(Y_t, config)
    return y
