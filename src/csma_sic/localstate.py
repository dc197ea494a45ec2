"""Per-node protocol state: channel-coefficient and ongoing-transmission tables.

Each node learns channel gains by overhearing RTS/CTS/ACK exchanges and
tracks which neighboring transmissions are in flight.  The distributed
feasibility check simulates the staged decoding of every known receiver
using only this table data.  Tests check the simulator's verdicts, the
global oracle on each transmitter's view, against it as the reference.
"""

from dataclasses import dataclass, field

from ._kernel import decode_feasible
from .phy import ChannelMatrix, NetworkTopology, PhyConfig


class MissingGainError(KeyError):
    """A required channel-gain entry is absent from a coefficient table.

    Raised instead of assuming a zero gain: a silent zero would approve
    transmissions the receiver cannot actually decode.
    """


def _pair(a: int, b: int) -> tuple:
    return (a, b) if a <= b else (b, a)


@dataclass
class CoeffTable:
    """Channel gains known to one node, keyed by unordered node pair."""

    owner: int
    entries: dict = field(default_factory=dict)

    def set(self, a: int, b: int, gain: float) -> None:
        self.entries[_pair(a, b)] = float(gain)

    def get(self, a: int, b: int) -> float:
        try:
            return self.entries[_pair(a, b)]
        except KeyError:
            raise MissingGainError(
                f"node {self.owner} has no gain estimate for pair ({a}, {b})"
            ) from None

    def has(self, a: int, b: int) -> bool:
        return _pair(a, b) in self.entries

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class TxTable:
    """Ongoing transmissions known to one node, as a tx -> rx map."""

    owner: int
    active: dict = field(default_factory=dict)

    def register(self, tx: int, rx: int) -> None:
        busy = set(self.active) | set(self.active.values())
        if tx in busy and self.active.get(tx) != rx:
            raise ValueError(f"node {tx} already busy in an ongoing transmission")
        if rx in busy and self.active.get(tx) != rx:
            raise ValueError(f"node {rx} already busy in an ongoing transmission")
        self.active[tx] = rx

    def clear(self, tx: int) -> None:
        self.active.pop(tx, None)

    def busy_nodes(self) -> set:
        return set(self.active) | set(self.active.values())

    def __len__(self) -> int:
        return len(self.active)


def warm_coeff_table(topology: NetworkTopology, channel: ChannelMatrix,
                     owner: int) -> CoeffTable:
    """Coefficient table of a node that has overheard every exchange near it.

    Holds the gain of every node pair with at least one end in range of
    ``owner``: what RTS/CTS/ACK overhearing converges to under a static
    channel.
    """
    n = topology.n_nodes
    near = [topology.in_range(u, owner) for u in range(n)]
    table = CoeffTable(owner)
    for a in range(n):
        for b in range(a + 1, n):
            if near[a] or near[b]:
                table.set(a, b, channel.gain(a, b))
    return table


def overhear_rts(table: CoeffTable, rts_tx: int, rts_rx: int,
                 channel: ChannelMatrix) -> CoeffTable:
    """Record the gain between the RTS sender and the overhearing node.

    Control packets are sent at a fixed known power, so hearing one yields
    the sender-to-self gain.  Estimation is idealized: the stored value is
    the true channel gain.  Idempotent under a static channel.
    """
    table.set(rts_tx, table.owner, channel.gain(rts_tx, table.owner))
    return table


def overhear_cts(table: CoeffTable, cts_tx: int, original_tx: int,
                 embedded_gain: float, channel: ChannelMatrix) -> CoeffTable:
    """Record gains learned from a CTS: sender-to-self plus the embedded link gain.

    The CTS carries the responder's estimate of the gain toward the node
    that sent the RTS, so overhearers learn that pair as well.
    """
    table.set(cts_tx, table.owner, channel.gain(cts_tx, table.owner))
    table.set(original_tx, cts_tx, embedded_gain)
    return table


def overhear_ack(table: CoeffTable, ack_tx: int, channel: ChannelMatrix) -> CoeffTable:
    """Refresh the gain between the ACK sender and the overhearing node."""
    table.set(ack_tx, table.owner, channel.gain(ack_tx, table.owner))
    return table


def check_feasible(tx: int, rx: int, coeffs: CoeffTable, txs: TxTable,
                   phy: PhyConfig, beta_by_pair=None) -> bool:
    """Whether ``rx`` can decode the signal from ``tx``, judged from table data.

    All transmitters in ``txs`` must have gain entries toward ``rx``; a
    missing entry raises :class:`MissingGainError`.  Transmitters whose
    stored gain identifies them as out of decode range are excluded from
    the staged decoding (their power is covered by the far-interference
    bound); per-stage semantics match :func:`csma_sic.phy.sic_decodable`.

    ``beta_by_pair`` optionally maps an ongoing (tx, rx) pair to its link's
    SINR threshold, for networks with per-link thresholds.
    """
    if beta_by_pair is None:
        if isinstance(phy.sinr_threshold, tuple):
            raise ValueError("per-link thresholds require a beta_by_pair mapping")
        beta_by_pair = {}
    uniform_beta = None if isinstance(phy.sinr_threshold, tuple) \
        else float(phy.sinr_threshold)
    thr = phy.in_range_gain
    senders = []
    gains = []
    betas = []
    for t, r in txs.active.items():
        g = coeffs.get(t, rx)
        if g >= thr:
            senders.append(t)
            gains.append(g)
            beta = beta_by_pair.get((t, r), uniform_beta)
            if beta is None:
                raise ValueError(f"no SINR threshold known for pair ({t}, {r})")
            betas.append(beta)
    if tx not in senders:
        return False
    return decode_feasible(gains, senders, tx, betas, phy.noise_plus_far,
                           phy.cancel_fraction)


def check_all_feasible(i: int, j: int, coeffs: CoeffTable, txs: TxTable,
                       phy: PhyConfig, beta_by_pair=None) -> bool:
    """Whether a new transmission i -> j can start without breaking anything.

    Forms the union of the known ongoing transmissions and the candidate
    link, then requires every receiver in that union to decode its own
    signal.  Returns False immediately if i or j is already busy
    (half-duplex).
    """
    busy = txs.busy_nodes()
    if i in busy or j in busy:
        return False
    trial = TxTable(owner=txs.owner, active=dict(txs.active))
    trial.register(i, j)
    for tx, rx in trial.active.items():
        if not check_feasible(tx, rx, coeffs, trial, phy, beta_by_pair):
            return False
    return True
