"""Deterministic system construction.

Topology, large-scale fading with statistical channel inversion power
control, pilot-hopping codes, and the energy-domain measurement matrix.
Everything here is a pure function of (config, rng); the resulting
objects are immutable and safe to share across workers.
"""
from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, asdict, fields

import numpy as np

from .errors import ConfigurationError, NumericalError
from . import serialize

# Base stations at the midpoint of each edge of the unit square.
EDGE_MIDPOINT_BS = np.array([[0.0, 0.5], [1.0, 0.5], [0.5, 0.0], [0.5, 1.0]])
# Largest event count: event pairing (detection.match_events) is O(E^3).
MAX_EVENTS = 50


def require_number(name: str, value, integer: bool = False):
    """Return value if it is a number (an integer when integer=True), else
    raise a ConfigurationError naming the field. Booleans are rejected."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if integer else "a number"
        raise ConfigurationError(f"{name} must be {what}, got {value!r}")
    return value


@dataclass(frozen=True)
class SystemConfig:
    """Scenario parameters. Defaults reproduce the reference scenario."""

    K: int = 1296          # users (grid_side**2)
    L: int = 4             # base stations
    M: int = 32            # antennas per base station
    tau_p: int = 10        # orthogonal pilots per coherence interval
    T: int = 10            # coherence intervals per hopping sequence
    snr_db: float = 10.0   # target received SNR, p*beta_min/sigma2
    sigma2: float = 1.0    # noise power (linear)
    p: float = 1.0         # maximum per-user power scale
    eta: float = 3.76      # path-loss exponent
    sigma_e2: float = 0.001  # event activation variance (area units^2)
    E: int = 3             # events per realization
    r: float = 0.05        # neighbor radius (plane units)
    grid_side: int = 36    # users per grid dimension

    def __post_init__(self):
        for f in fields(self):
            require_number(f.name, getattr(self, f.name), integer=f.type == "int")
        for name in ("K", "L", "M", "tau_p", "T", "grid_side"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.E < 0:
            raise ConfigurationError(f"E must be >= 0, got {self.E}")
        if self.E > self.K:
            raise ConfigurationError(f"E must be <= K={self.K}, got {self.E}")
        if self.E > MAX_EVENTS:
            raise ConfigurationError(
                f"E must be <= {MAX_EVENTS}, got {self.E}: pairing estimated with true "
                "events is O(E^3), about 5 ms per localization at E = 50 and 20 ms at "
                "E = 100, and a trial localizes once per (method, threshold)"
            )
        for name in ("sigma2", "sigma_e2", "r", "p"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigurationError(f"{name} must be finite and > 0, got {value}")
        for name in ("snr_db", "eta"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        # unique hopping sequences must exist
        if self.K > self.tau_p**self.T:
            raise ConfigurationError(
                f"K={self.K} exceeds tau_p**T={self.tau_p ** self.T}: "
                "unique pilot-hopping sequences do not exist"
            )
        if self.tau_p * self.T > self.K:
            warnings.warn(
                f"tau_p*T={self.tau_p * self.T} > K={self.K}: measurement matrix is "
                "tall; the operating regime of interest has a wide matrix",
                stacklevel=2,
            )

    @property
    def ml(self) -> int:
        return self.M * self.L


@dataclass(frozen=True)
class Topology:
    user_positions: np.ndarray  # (K, 2) in [0,1]^2
    bs_positions: np.ndarray    # (L, 2)
    distances: np.ndarray       # (K, L) Euclidean


@dataclass(frozen=True)
class FadingProfile:
    beta_per_bs: np.ndarray  # (K, L) large-scale coefficients beta_k^l
    beta: np.ndarray         # (K,) per-user mean over base stations
    beta_min: float
    gamma: float             # path-loss constant
    powers: np.ndarray       # (K,) channel-inversion transmit powers p_k


@dataclass(frozen=True)
class PilotHopCode:
    hops: np.ndarray  # (K, T) ints in 1..tau_p


@dataclass(frozen=True)
class MeasurementMatrix:
    """Energy-domain sensing matrix.

    Row (i, t) is flattened as (t-1)*tau_p + i with t outer and the pilot
    index i inner, matching the energy vector layout.
    """

    a: np.ndarray  # (tau_p*T, K)


def build_topology(config: SystemConfig, bs_positions: np.ndarray | None = None) -> Topology:
    """Place users at grid-cell centers and base stations at edge midpoints.

    User k = row*grid_side + col sits at ((col+0.5)/g, (row+0.5)/g),
    row-major, so no user coincides with a base station.
    """
    g = config.grid_side
    if g * g != config.K:
        raise ConfigurationError(f"grid_side**2={g * g} != K={config.K}")
    if bs_positions is None:
        if config.L == 4:
            bs_positions = EDGE_MIDPOINT_BS.copy()
        else:
            raise ConfigurationError(
                f"default base-station layout requires L=4, got L={config.L}; "
                "pass bs_positions explicitly"
            )
    bs_positions = np.asarray(bs_positions, dtype=float)
    if bs_positions.shape != (config.L, 2):
        raise ConfigurationError(
            f"bs_positions must have shape ({config.L}, 2), got {bs_positions.shape}"
        )
    rows, cols = np.divmod(np.arange(config.K), g)
    user_positions = np.column_stack([(cols + 0.5) / g, (rows + 0.5) / g])
    diff = user_positions[:, None, :] - bs_positions[None, :, :]
    distances = np.linalg.norm(diff, axis=2)
    if np.any(distances <= 0):
        raise NumericalError("a user coincides with a base station (zero distance)")
    return Topology(user_positions, bs_positions, distances)


def calibrate_gamma(config: SystemConfig, topology: Topology) -> float:
    """Path-loss constant giving the target SNR for the worst-placed user.

    SNR = p*beta_min/sigma2 with beta_min = min_k (gamma/L) sum_l d_kl^-eta,
    so gamma follows in closed form.
    """
    if np.any(topology.distances <= 0):
        raise NumericalError("zero user-to-base-station distance")
    mean_gain = np.mean(topology.distances ** (-config.eta), axis=1)  # (K,)
    snr_lin = 10.0 ** (config.snr_db / 10.0)
    return snr_lin * config.sigma2 / (config.p * np.min(mean_gain))


def build_fading(config: SystemConfig, topology: Topology, gamma: float) -> FadingProfile:
    """Large-scale fading and statistical channel inversion power control."""
    if gamma <= 0:
        raise ConfigurationError(f"gamma must be > 0, got {gamma}")
    beta_per_bs = gamma * topology.distances ** (-config.eta)
    beta = beta_per_bs.mean(axis=1)
    beta_min = float(np.min(beta))
    powers = config.p * beta_min / beta  # p_k*beta_k == p*beta_min for all k
    return FadingProfile(beta_per_bs, beta, beta_min, float(gamma), powers)


def generate_code(config: SystemConfig, rng: np.random.Generator) -> PilotHopCode:
    """Draw K distinct pilot-hopping sequences uniformly at random.

    Sequences are drawn i.i.d. uniform over the tau_p**T possibilities and
    rejection-sampled until all rows are distinct, which is equivalent to
    uniform sampling without replacement.
    """
    if config.K > config.tau_p**config.T:
        raise ConfigurationError("K > tau_p**T: unique sequences do not exist")
    hops = np.empty((config.K, config.T), dtype=np.int64)
    seen = set()
    k = 0
    while k < config.K:
        row = rng.integers(1, config.tau_p + 1, size=config.T)
        key = row.tobytes()
        if key in seen:
            continue
        seen.add(key)
        hops[k] = row
        k += 1
    return PilotHopCode(hops)


def build_measurement_matrix(
    code: PilotHopCode, fading: FadingProfile, config: SystemConfig
) -> MeasurementMatrix:
    """Assemble the tau_p*T x K matrix with entries S_ikt * tau_p * p_k * beta_k."""
    K, T = code.hops.shape
    if K != config.K or T != config.T:
        raise ConfigurationError("code dimensions do not match config")
    a = np.zeros((config.tau_p * T, K))
    gains = config.tau_p * fading.powers * fading.beta  # (K,)
    rows = np.arange(T) * config.tau_p  # row base per interval
    for k in range(K):
        a[rows + code.hops[k] - 1, k] = gains[k]
    return MeasurementMatrix(a)


def build_system(config: SystemConfig, rng: np.random.Generator,
                 bs_positions: np.ndarray | None = None):
    """Convenience: topology, calibrated fading, code and matrix in one call."""
    topology = build_topology(config, bs_positions)
    gamma = calibrate_gamma(config, topology)
    fading = build_fading(config, topology, gamma)
    code = generate_code(config, rng)
    a = build_measurement_matrix(code, fading, config)
    return topology, fading, code, a


def neighbor_sets(topology: Topology, r: float) -> list[np.ndarray]:
    """N(k) = indices of users strictly within distance r of user k (self included).

    Users are bucketed into square cells of side >= r, so the neighbors of
    a user lie in the 3x3 block of cells around its own; every candidate
    pair from those cells is held to the exact test ||p_i - p_j||^2 < r^2.
    No K x K distance matrix is formed.
    """
    if not r > 0:
        raise ConfigurationError(f"r must be > 0, got {r}")
    pos = topology.user_positions
    K = pos.shape[0]
    lo = pos.min(axis=0)
    # cell indices run 0..1024 per axis, whatever the spread of the positions
    side = max(r, float(np.max(pos.max(axis=0) - lo)) / 1024)
    cells = np.floor((pos - lo) / side).astype(np.int64)
    stride = 1027  # > 1026, so a -1/+1 column offset never wraps into another row
    key = cells[:, 0] * stride + cells[:, 1]
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    # each user against the 3x3 block of cells around its own; the users of
    # one target cell sit at sorted positions start .. start + count - 1
    offsets = (np.arange(-1, 2)[:, None] * stride + np.arange(-1, 2)).ravel()
    target = (key[:, None] + offsets).ravel()
    start = np.searchsorted(sorted_key, target, "left")
    count = np.searchsorted(sorted_key, target, "right") - start
    i = np.repeat(np.arange(target.size) // offsets.size, count)
    j = order[np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())]
    close = np.sum((pos[i] - pos[j]) ** 2, axis=1) < r * r
    i, j = i[close], j[close]
    by_pair = np.lexsort((j, i))
    return np.split(j[by_pair], np.searchsorted(i[by_pair], np.arange(1, K)))


def save_system(path, config, topology, fading, code, a):
    """system.json: every field of the system's parts, under schema
    ``pilothop-system-v1``."""
    serialize.dump(
        {
            "schema": "pilothop-system-v1",
            "config": asdict(config),
            "topology": asdict(topology),
            "fading": asdict(fading),
            "code": asdict(code),
            "measurement_matrix": asdict(a),
        },
        path,
    )
