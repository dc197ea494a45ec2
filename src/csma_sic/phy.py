"""Physical layer: geometry-derived channel gains and the SIC decode oracle.

Signals are modeled by received power only.  A transmission succeeds at a
receiver when staged successive interference cancellation (strongest signal
first, decoded signals partially removed) reaches the desired signal with
per-stage SINR at or above the threshold.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ._kernel import decode_feasible

#: Near-field clamp on pairwise distance (meters); keeps gains bounded.
D_MIN = 1.0


def reals_only(items) -> bool:
    """Whether every item is a real number and none a bool.

    Checked once per distinct type, and ``float`` and ``int`` by identity:
    an ABC ``isinstance`` per element costs about 0.8 us, a visible share
    of loading a K = 25 scenario.
    """
    return all(t is float or t is int
               or issubclass(t, numbers.Real) and not issubclass(t, bool)
               for t in set(map(type, items)))


def real_array(name: str, value) -> np.ndarray:
    """``value`` as a float array, refusing str and bool entries.

    ``np.asarray`` alone would read ``'0.5'`` as 0.5, and ``[0.5, True]`` is
    a float64 array with ``True`` already turned into 1.0, so a list or tuple
    is checked with ``reals_only`` and an array by its dtype.
    """
    if isinstance(value, np.ndarray):
        ok = value.dtype.kind in "iuf"
    else:
        ok = reals_only(value if isinstance(value, (list, tuple)) else (value,))
    if not ok:
        raise ValueError(f"{name} must be real numbers, not {value!r}")
    return np.asarray(value, dtype=float)


@dataclass(frozen=True)
class PhyConfig:
    """Uniform physical-layer parameters.

    ``sinr_threshold`` may be a single float (uniform threshold) or a
    sequence with one threshold per link id, stored as a tuple of floats.
    ``far_interference`` is the constant bound on out-of-range interference
    power, normalized by the transmit power.  Every field refuses str and
    bool values.
    """

    tx_power: float = 1.0
    noise_power: float = 0.0
    sinr_threshold: float | tuple = 1.0
    cancel_fraction: float = 1.0
    radius: float = 5.0
    far_interference: float = 0.0
    path_loss_exponent: float = 3.0

    def __post_init__(self):
        per_link = isinstance(self.sinr_threshold, (list, tuple, np.ndarray))
        scalars = ("tx_power", "noise_power", "cancel_fraction", "radius",
                   "far_interference", "path_loss_exponent")
        for name in scalars + (() if per_link else ("sinr_threshold",)):
            value = getattr(self, name)
            if not reals_only((value,)):
                raise ValueError(f"{name} must be a real number, not {value!r}")
        if not (math.isfinite(self.tx_power) and self.tx_power > 0):
            raise ValueError("tx_power must be finite and positive")
        if not (math.isfinite(self.noise_power) and self.noise_power >= 0):
            raise ValueError("noise_power must be finite and nonnegative")
        betas = real_array("sinr_threshold", self.sinr_threshold)
        if per_link and betas.ndim != 1:
            raise ValueError("sinr_threshold must be a number or a flat "
                             "sequence of numbers")
        if not np.all(np.isfinite(betas) & (betas > 0)):
            raise ValueError("sinr_threshold must be finite and positive")
        if per_link:
            object.__setattr__(self, "sinr_threshold", tuple(betas.tolist()))
        if not 0.0 <= self.cancel_fraction <= 1.0:
            raise ValueError("cancel_fraction must lie in [0, 1]")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be finite and positive")
        if not (math.isfinite(self.far_interference)
                and self.far_interference >= 0):
            raise ValueError("far_interference must be finite and nonnegative")
        # in_range_gain relies on a strictly decreasing power law
        if not (math.isfinite(self.path_loss_exponent)
                and self.path_loss_exponent > 0):
            raise ValueError("path_loss_exponent must be finite and positive")

    def beta_for(self, link_id: int) -> float:
        """SINR threshold applying to the given link."""
        if isinstance(self.sinr_threshold, tuple):
            return self.sinr_threshold[link_id]
        return float(self.sinr_threshold)

    @property
    def noise_plus_far(self) -> float:
        """Noise over transmit power plus the out-of-range interference bound."""
        return self.noise_power / self.tx_power + self.far_interference

    @property
    def in_range_gain(self) -> float:
        """Gain of a signal received from exactly the control radius away.

        A stored channel gain at or above this value identifies an in-range
        transmitter without access to node positions (the power law is
        strictly decreasing beyond the near-field clamp).
        """
        return max(self.radius, D_MIN) ** (-self.path_loss_exponent)


@dataclass(frozen=True)
class Node:
    id: int
    x: float
    y: float


@dataclass(frozen=True)
class Link:
    id: int
    tx: int
    rx: int


@dataclass(frozen=True)
class NetworkTopology:
    """Static world: node positions, directed links, physical parameters."""

    nodes: tuple
    links: tuple
    phy: PhyConfig = field(default_factory=PhyConfig)

    def __post_init__(self):
        nodes = tuple(n if isinstance(n, Node) else Node(*n) for n in self.nodes)
        links = tuple(l if isinstance(l, Link) else Link(*l) for l in self.links)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "links", links)
        if sorted(n.id for n in nodes) != list(range(len(nodes))):
            raise ValueError("node ids must be unique and dense from 0")
        if sorted(l.id for l in links) != list(range(len(links))):
            raise ValueError("link ids must be unique and dense from 0")
        if not all(math.isfinite(n.x) and math.isfinite(n.y) for n in nodes):
            raise ValueError("node positions must be finite")
        pos = {(n.x, n.y) for n in nodes}
        if len(pos) != len(nodes):
            raise ValueError("no two nodes may share a position")
        if isinstance(self.phy.sinr_threshold, tuple) and len(self.phy.sinr_threshold) != len(links):
            raise ValueError("per-link sinr_threshold length must equal the link count")
        for l in links:
            if l.tx not in range(len(nodes)) or l.rx not in range(len(nodes)):
                raise ValueError(f"link {l.id}: endpoints must be node ids")
            if l.tx == l.rx:
                raise ValueError(f"link {l.id}: transmitter equals receiver")
            if self.distance(l.tx, l.rx) >= self.phy.radius:
                raise ValueError(
                    f"link {l.id}: endpoints must be within the control radius"
                )

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_links(self) -> int:
        return len(self.links)

    def distance(self, a: int, b: int) -> float:
        na, nb = self.nodes[a], self.nodes[b]
        return math.hypot(na.x - nb.x, na.y - nb.y)

    def in_range(self, a: int, b: int) -> bool:
        """Whether nodes a and b are within control/decode radius."""
        return self.distance(a, b) <= self.phy.radius


@dataclass(frozen=True)
class ChannelMatrix:
    """Symmetric matrix of pairwise channel power gains; diagonal unused."""

    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("channel matrix must be square")
        # exact symmetry, the usual case, is a cheaper test than allclose
        if not ((g == g.T).all() or np.allclose(g, g.T)):
            raise ValueError("channel matrix must be symmetric")
        if np.any(g < 0):
            raise ValueError("channel gains must be nonnegative")
        g = g.copy()
        np.fill_diagonal(g, 0.0)
        g.setflags(write=False)
        object.__setattr__(self, "g", g)

    def gain(self, a: int, b: int) -> float:
        return float(self.g[a, b])


def build_channel_matrix(topology: NetworkTopology) -> ChannelMatrix:
    """Distance power-law gains: g = max(d, D_MIN) ** -alpha, symmetric."""
    # reshaped, so that no nodes give a (0, 2) array, not a (0,) one
    xy = np.array([(n.x, n.y) for n in topology.nodes]).reshape(-1, 2)
    d = np.hypot(xy[:, 0, None] - xy[None, :, 0], xy[:, 1, None] - xy[None, :, 1])
    np.fill_diagonal(d, np.inf)
    g = np.maximum(d, D_MIN) ** (-topology.phy.path_loss_exponent)
    np.fill_diagonal(g, 0.0)
    return ChannelMatrix(g)


def sic_decodable(tx, rx, active_tx, channel: ChannelMatrix, phy: PhyConfig,
                  beta_by_tx=None) -> bool:
    """Whether the receiver can decode the signal from ``tx`` via staged SIC.

    ``active_tx`` is the set of transmitters within decode radius of ``rx``
    (the caller filters by range); ``beta_by_tx`` maps a transmitter id to
    the SINR threshold of its link.  It defaults to the uniform threshold and
    is required when thresholds are per link.
    """
    active = sorted(active_tx)
    if tx not in active_tx:
        raise ValueError("desired transmitter is not in the active set")
    if beta_by_tx is None:
        if isinstance(phy.sinr_threshold, tuple):
            raise ValueError("per-link thresholds require a beta_by_tx mapping")
        betas = [float(phy.sinr_threshold)] * len(active)
    else:
        betas = [beta_by_tx[k] for k in active]
    gains = [channel.gain(k, rx) for k in active]
    return decode_feasible(gains, active, tx, betas, phy.noise_plus_far,
                           phy.cancel_fraction)
