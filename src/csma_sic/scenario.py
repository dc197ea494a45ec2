"""Scenario files: one YAML document fully determines a run.

Sections: ``topology`` (required), ``phy``, and optional mode blocks
``rates``, ``sim``, ``adapt``, ``capacity``.  Unknown keys anywhere are
rejected so that typos cannot silently fall back to defaults.
"""

from dataclasses import dataclass

import numpy as np
import yaml

from .adapt import AdaptConfig
from .ctmc import RateParams
from .phy import ChannelMatrix, NetworkTopology, PhyConfig, build_channel_matrix
from .setspace import LinkSet, is_independent
from .sim import SimConfig


class ScenarioError(ValueError):
    """A scenario file failed validation."""


_PHY_KEYS = {"tx_power", "noise_power", "sinr_threshold", "cancel_fraction",
             "radius", "far_interference", "path_loss_exponent"}
_RATES_KEYS = {"r", "lambda", "mu"}
_SIM_KEYS = {"horizon", "seed", "warmup"}
_ADAPT_KEYS = {"target_rates", "update_period", "max_updates", "step_a0",
               "step_i0", "r_cap", "arrivals"}


def _require_keys(section: str, mapping: dict, allowed: set) -> None:
    if not isinstance(mapping, dict):
        raise ScenarioError(f"section '{section}' must be a mapping")
    unknown = set(mapping) - allowed
    if unknown:
        raise ScenarioError(
            f"section '{section}': unknown keys {sorted(unknown)}"
        )


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: topology plus per-mode configuration blocks."""

    topology: NetworkTopology
    channel: ChannelMatrix
    params: RateParams
    sim: SimConfig
    adapt: AdaptConfig
    capacity_x: np.ndarray
    raw: dict


def _parse_topology(data: dict, phy: PhyConfig) -> NetworkTopology:
    _require_keys("topology", data, {"nodes", "links"})
    try:
        nodes = tuple(
            (int(n["id"]), float(n["pos"][0]), float(n["pos"][1]))
            for n in data["nodes"]
        )
        links = tuple(
            (int(l["id"]), int(l["tx"]), int(l["rx"]))
            for l in data["links"]
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ScenarioError(f"topology: malformed node or link entry ({exc})")
    for n in data["nodes"]:
        _require_keys("topology.nodes[]", n, {"id", "pos"})
    for l in data["links"]:
        _require_keys("topology.links[]", l, {"id", "tx", "rx"})
    try:
        return NetworkTopology(nodes, links, phy)
    except ValueError as exc:
        raise ScenarioError(f"topology: {exc}")


def parse_scenario(data: dict) -> Scenario:
    """Validate a scenario mapping and build the runtime objects."""
    _require_keys("<root>", data, {"topology", "phy", "rates", "sim", "adapt",
                                   "capacity"})
    if "topology" not in data:
        raise ScenarioError("scenario is missing the 'topology' section")

    phy_data = data.get("phy", {})
    _require_keys("phy", phy_data, _PHY_KEYS)
    try:
        phy = PhyConfig(**phy_data)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"phy: {exc}")

    topology = _parse_topology(data["topology"], phy)
    channel = build_channel_matrix(topology)
    k = topology.n_links

    for link in topology.links:
        solo = LinkSet.from_ids([link.id], k)
        if not is_independent(solo, topology, channel, phy):
            raise ScenarioError(
                f"topology: link {link.id} is not feasible on its own"
            )

    rates_data = data.get("rates", {})
    _require_keys("rates", rates_data, _RATES_KEYS)
    if "r" in rates_data and "lambda" in rates_data:
        raise ScenarioError("rates: give either 'r' or 'lambda', not both")
    if "lambda" in rates_data:
        lam = np.asarray(rates_data["lambda"], dtype=float)
        if np.any(lam <= 0):
            raise ScenarioError("rates: lambda entries must be positive")
        r = np.log(lam)
    else:
        r = np.asarray(rates_data.get("r", np.zeros(k)), dtype=float)
    mu = rates_data.get("mu")
    try:
        params = RateParams(r, None if mu is None else np.asarray(mu, float))
    except ValueError as exc:
        raise ScenarioError(f"rates: {exc}")
    if params.r.shape != (k,):
        raise ScenarioError("rates: need one entry per link")

    sim_data = data.get("sim", {})
    _require_keys("sim", sim_data, _SIM_KEYS)
    try:
        sim_cfg = SimConfig(
            horizon=float(sim_data.get("horizon", 1e5)),
            seed=int(sim_data.get("seed", 0)),
            params=params,
            warmup=None if sim_data.get("warmup") is None
            else float(sim_data["warmup"]),
        )
    except ValueError as exc:
        raise ScenarioError(f"sim: {exc}")

    adapt_cfg = None
    if "adapt" in data:
        _require_keys("adapt", data["adapt"], _ADAPT_KEYS)
        adapt_data = dict(data["adapt"])
        try:
            adapt_cfg = AdaptConfig(
                target_rates=np.asarray(adapt_data.pop("target_rates"), float),
                **adapt_data,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"adapt: {exc}")
        if adapt_cfg.target_rates.shape != (k,):
            raise ScenarioError("adapt: target_rates needs one entry per link")

    capacity_x = None
    if "capacity" in data:
        _require_keys("capacity", data["capacity"], {"x"})
        capacity_x = np.asarray(data["capacity"]["x"], dtype=float)
        if (capacity_x.shape != (k,)
                or not np.all(np.isfinite(capacity_x) & (capacity_x >= 0))):
            raise ScenarioError("capacity: x needs one finite, nonnegative "
                                "entry per link")

    return Scenario(topology=topology, channel=channel, params=params,
                    sim=sim_cfg, adapt=adapt_cfg, capacity_x=capacity_x,
                    raw=data)


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"{path}: {exc}")
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping")
    return parse_scenario(data)


def dump_scenario(scenario: Scenario) -> str:
    """Serialize back to YAML; re-parsing yields an identical scenario."""
    return yaml.safe_dump(scenario.raw, sort_keys=True)
