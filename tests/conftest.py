"""Shared topology builders for the test suite."""

import math

import numpy as np
import pytest

from csma_sic import (ChannelMatrix, NetworkTopology, PhyConfig,
                      build_channel_matrix, is_independent, LinkSet)


def triangle_topology(cross_gain: float = 0.3):
    """Three node-disjoint links where every pair coexists but the triple fails.

    Three unit-length links arranged radially at 120 degrees.  Each receiver
    sees the two other transmitters at equal distance, chosen so the desired
    SINR passes with one interferer (1 / (0.1 + g) >= 2) and fails with two
    (1 / (0.1 + 2 g) < 2).  Gives the 7-state chain: empty set, three
    singletons, three pairs.
    """
    phy = PhyConfig(tx_power=1.0, noise_power=0.1, sinr_threshold=2.0,
                    cancel_fraction=1.0, radius=5.0, path_loss_exponent=3.0)
    d_cross = cross_gain ** (-1.0 / 3.0)
    # solve 3a^2 + 3a + 1 = d_cross^2 for the inner radius, unit link length
    a = (-3.0 + math.sqrt(9.0 + 12.0 * (d_cross ** 2 - 1.0))) / 6.0
    b = a + 1.0
    nodes = []
    for k, ang in enumerate((90.0, 210.0, 330.0)):
        th = math.radians(ang)
        nodes.append((2 * k, a * math.cos(th), a * math.sin(th)))
        nodes.append((2 * k + 1, b * math.cos(th), b * math.sin(th)))
    links = ((0, 0, 1), (1, 2, 3), (2, 4, 5))
    return NetworkTopology(tuple(nodes), links, phy)


def random_topology(rng: np.random.Generator, n_links: int,
                    noise_power: float = 0.01, beta: float = 1.5,
                    cancel_fraction: float = 1.0, radius: float = 100.0,
                    area: float = 8.0) -> NetworkTopology:
    """Random solo-feasible topology, by default with every node in range.

    Link lengths are drawn short enough that each link passes its SINR
    threshold alone.  The default radius keeps all interferers in range of
    all receivers; a smaller one (``radius=6.0, area=20.0`` in the tests)
    gives partial range, where not every receiver hears every transmitter.
    """
    phy = PhyConfig(tx_power=1.0, noise_power=noise_power, sinr_threshold=beta,
                    cancel_fraction=cancel_fraction, radius=radius)
    max_len = min((noise_power * beta) ** (-1.0 / 3.0) * 0.95, area / 2)
    while True:
        nodes = []
        links = []
        for k in range(n_links):
            tx = rng.uniform(0.0, area, size=2)
            ang = rng.uniform(0.0, 2 * math.pi)
            length = rng.uniform(1.0, max(1.05, max_len))
            rx = tx + length * np.array([math.cos(ang), math.sin(ang)])
            nodes.append((2 * k, float(tx[0]), float(tx[1])))
            nodes.append((2 * k + 1, float(rx[0]), float(rx[1])))
            links.append((k, 2 * k, 2 * k + 1))
        if len({(x, y) for _, x, y in nodes}) != len(nodes):
            continue
        topo = NetworkTopology(tuple(nodes), tuple(links), phy)
        channel = build_channel_matrix(topo)
        if all(
            is_independent(LinkSet.from_ids([l.id], n_links), topo, channel)
            for l in topo.links
        ):
            return topo


def gain_matrix(n: int, entries: dict) -> ChannelMatrix:
    """Arbitrary symmetric gain matrix from {(a, b): gain} for direct tests."""
    g = np.zeros((n, n))
    for (a, b), v in entries.items():
        g[a, b] = g[b, a] = v
    return ChannelMatrix(g)


@pytest.fixture
def triangle():
    topo = triangle_topology()
    return topo, build_channel_matrix(topo)
