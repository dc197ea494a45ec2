"""Physical layer: geometry-derived channel gains and the SIC decode oracle.

Signals are modeled by received power only.  A transmission succeeds at a
receiver when staged successive interference cancellation (strongest signal
first, decoded signals partially removed) reaches the desired signal with
per-stage SINR at or above the threshold.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernel import decode_feasible

#: Near-field clamp on pairwise distance (meters); keeps gains bounded.
D_MIN = 1.0


@dataclass(frozen=True)
class PhyConfig:
    """Uniform physical-layer parameters.

    ``sinr_threshold`` may be a single float (uniform threshold) or a
    sequence with one threshold per link id.  ``far_interference`` is the
    constant bound on out-of-range interference power, normalized by the
    transmit power.
    """

    tx_power: float = 1.0
    noise_power: float = 0.0
    sinr_threshold: float | tuple = 1.0
    cancel_fraction: float = 1.0
    radius: float = 5.0
    far_interference: float = 0.0
    path_loss_exponent: float = 3.0

    def __post_init__(self):
        if self.tx_power <= 0:
            raise ValueError("tx_power must be positive")
        if self.noise_power < 0:
            raise ValueError("noise_power must be nonnegative")
        betas = np.atleast_1d(np.asarray(self.sinr_threshold, dtype=float))
        if np.any(betas <= 0):
            raise ValueError("sinr_threshold must be positive")
        if isinstance(self.sinr_threshold, (list, np.ndarray)):
            object.__setattr__(self, "sinr_threshold", tuple(float(b) for b in betas))
        if not 0.0 <= self.cancel_fraction <= 1.0:
            raise ValueError("cancel_fraction must lie in [0, 1]")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.far_interference < 0:
            raise ValueError("far_interference must be nonnegative")

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
        pos = {(n.x, n.y) for n in nodes}
        if len(pos) != len(nodes):
            raise ValueError("no two nodes may share a position")
        if isinstance(self.phy.sinr_threshold, tuple) and len(self.phy.sinr_threshold) != len(links):
            raise ValueError("per-link sinr_threshold length must equal the link count")
        for l in links:
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

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

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
        if not np.allclose(g, g.T):
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
    xy = np.array([(n.x, n.y) for n in topology.nodes])
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
