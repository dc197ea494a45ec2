"""Scenario files: one YAML document fully determines a run.

Sections: ``topology`` (required), ``phy``, and optional mode blocks
``rates``, ``sim``, ``adapt``, ``capacity``.  Unknown keys anywhere are
rejected so that typos cannot silently fall back to defaults.
"""

import numbers
from dataclasses import dataclass

import numpy as np
import yaml

from .adapt import AdaptConfig
from .ctmc import RateParams
from .phy import (ChannelMatrix, NetworkTopology, PhyConfig, build_channel_matrix,
                  real_array, reals_only)
# perfbench/run.py wraps ``scenario.is_independent``, which is not called here.
from .setspace import compile_network, is_independent  # noqa: F401
from .sim import SimConfig


class ScenarioError(ValueError):
    """A scenario file failed validation."""


# libyaml's parser when PyYAML was built with it, else the pure-Python one;
# both compose the same node tree, with the same resolved tags.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# The safe loader's own constructors of the core scalar tags and its
# merge-key flattening; they keep no state between calls.
_SAFE = yaml.constructor.SafeConstructor()
_SCALARS = {f"tag:yaml.org,2002:{name}":
            getattr(_SAFE, f"construct_yaml_{name}")
            for name in ("null", "bool", "int", "float", "str")}
_SEQ, _MAP = "tag:yaml.org,2002:seq", "tag:yaml.org,2002:map"


_PHY_KEYS = {"tx_power", "noise_power", "sinr_threshold", "cancel_fraction",
             "radius", "far_interference", "path_loss_exponent"}
_RATES_KEYS = {"r", "lambda", "mu"}
_SIM_KEYS = {"horizon", "seed", "warmup"}
_ADAPT_KEYS = {"target_rates", "update_period", "max_updates", "step_a0",
               "step_i0"}


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


def _integer(value) -> int:
    if type(value) is int:  # as YAML gives it; skips two ABC checks
        return value
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return int(value)


def _real(name: str, value) -> float:
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} {value!r} is not a real number")
    return float(value)


def _position(value) -> tuple:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not reals_only(value)):
        raise TypeError(f"pos {value!r} is not two real numbers")
    return float(value[0]), float(value[1])


def _parse_topology(data: dict, phy: PhyConfig) -> NetworkTopology:
    _require_keys("topology", data, {"nodes", "links"})
    try:
        nodes = tuple(
            (_integer(n["id"]), *_position(n["pos"]))
            for n in data["nodes"]
        )
        links = tuple(
            (_integer(l["id"]), _integer(l["tx"]), _integer(l["rx"]))
            for l in data["links"]
        )
    except (KeyError, TypeError, IndexError, ValueError) as exc:
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

    # compiled once: a Simulator on this topology and channel reuses it
    unfit = ((1 << k) - 1) & ~compile_network(topology, channel).solo
    if unfit:
        link = (unfit & -unfit).bit_length() - 1
        raise ScenarioError(f"topology: link {link} is not feasible on its own")

    rates_data = data.get("rates", {})
    _require_keys("rates", rates_data, _RATES_KEYS)
    if "r" in rates_data and "lambda" in rates_data:
        raise ScenarioError("rates: give either 'r' or 'lambda', not both")
    try:
        if "lambda" in rates_data:
            lam = real_array("lambda", rates_data["lambda"])
            if np.any(lam <= 0):
                raise ValueError("lambda entries must be positive")
            r = np.log(lam)
        else:
            r = rates_data.get("r", np.zeros(k))
        params = RateParams(r, rates_data.get("mu"))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"rates: {exc}")
    if params.r.shape != (k,):
        raise ScenarioError("rates: need one entry per link")

    sim_data = data.get("sim", {})
    _require_keys("sim", sim_data, _SIM_KEYS)
    try:
        sim_cfg = SimConfig(
            horizon=_real("horizon", sim_data.get("horizon", 1e5)),
            seed=sim_data.get("seed", 0),
            params=params,
            warmup=None if sim_data.get("warmup") is None
            else _real("warmup", sim_data["warmup"]),
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"sim: {exc}")

    adapt_cfg = None
    if "adapt" in data:
        _require_keys("adapt", data["adapt"], _ADAPT_KEYS)
        try:
            adapt_cfg = AdaptConfig(**data["adapt"])
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"adapt: {exc}")
        if adapt_cfg.target_rates.shape != (k,):
            raise ScenarioError("adapt: target_rates needs one entry per link")

    capacity_x = None
    if "capacity" in data:
        _require_keys("capacity", data["capacity"], {"x"})
        try:
            capacity_x = real_array("x", data["capacity"].get("x"))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"capacity: {exc}")
        if (capacity_x.shape != (k,)
                or not np.all(np.isfinite(capacity_x) & (capacity_x >= 0))):
            raise ScenarioError("capacity: x needs one finite, nonnegative "
                                "entry per link")

    return Scenario(topology=topology, channel=channel, params=params,
                    sim=sim_cfg, adapt=adapt_cfg, capacity_x=capacity_x,
                    raw=data)


def _plain(node, built: dict, open_: set):
    """The value of a composed YAML node: what ``yaml.safe_load`` gives.

    Scalars go through the safe loader's own constructors, mappings
    through its merge-key flattening.  A mapping or sequence is built once
    and shared by every alias of it, as the safe loader shares it, so
    nested aliases cost what the nodes cost.  ``built`` maps the id of each
    finished one to its value, and a scalar's tag and text to its
    immutable value, so a repeated key or id is constructed once.
    ``open_`` holds the ids of the collections being built: an alias to
    one of them is recursive.  A tag outside the core schema (``!!set``,
    ``!!timestamp``, ``!!binary``, a local tag), a scalar its tag's
    constructor refuses, an unhashable key or a recursive alias raises
    ``ValueError``.
    """
    if node.id == "scalar" and node.tag in _SCALARS:
        key = node.tag, node.value
        value = built.get(key, built)
        if value is built:
            try:
                value = built[key] = _SCALARS[node.tag](node)
            except (ValueError, KeyError, IndexError):
                raise ValueError(f"{_where(node)}: {node.value!r} is not a "
                                 f"valid {node.tag}")
        return value
    key = id(node)
    value = built.get(key)
    if value is not None:
        return value
    if key in open_:
        raise ValueError(f"recursive alias: the node at {_where(node)} "
                         "contains itself")
    open_.add(key)
    if node.id == "sequence" and node.tag == _SEQ:
        value = [_plain(item, built, open_) for item in node.value]
    elif node.id == "mapping" and node.tag == _MAP:
        _SAFE.flatten_mapping(node)
        value = {}
        for key_node, value_node in node.value:
            try:
                value[_plain(key_node, built, open_)] = _plain(
                    value_node, built, open_)
            except TypeError:  # the key is a list or a dict
                raise ValueError(f"{_where(key_node)}: unhashable key")
    else:
        raise ValueError(f"{_where(node)}: tag {node.tag} is not supported; "
                         "a scenario holds only mappings, sequences, "
                         "strings, numbers, booleans and nulls")
    open_.discard(key)
    built[key] = value
    return value


def _where(node) -> str:
    mark = node.start_mark
    return f"line {mark.line + 1}, column {mark.column + 1}"


def _read_yaml(path):
    """The plain data of one YAML file, as ``yaml.safe_load`` gives it.

    The file is read as UTF-8 and composed into a node tree by libyaml
    when PyYAML has it and by PyYAML's pure-Python parser otherwise; the
    tree becomes plain data through ``_plain``.  A file that does not
    decode, a syntax error or anything ``_plain`` refuses raises
    ``ScenarioError`` naming ``path``; so does nesting deeper than
    Python's recursion limit (about a thousand levels, where a scenario
    has four), which ``yaml.safe_load`` would read.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            node = yaml.compose(fh, Loader=_LOADER)
            return None if node is None else _plain(node, {}, set())
        except (yaml.YAMLError, ValueError, RecursionError) as exc:
            # ValueError: _plain's refusals and UnicodeDecodeError
            raise ScenarioError(f"{path}: {exc}")


def load_scenario(path) -> Scenario:
    """Read and validate one scenario file.

    The mapping is ``yaml.safe_load``'s, merge keys included, but a tag
    outside the core schema (null, bool, int, float, str, seq, map) or a
    recursive alias is refused (``_read_yaml``).  That, a file that does
    not decode, a syntax error or a document that is not a mapping raises
    ``ScenarioError`` naming ``path``.
    """
    data = _read_yaml(path)
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping")
    return parse_scenario(data)


def dump_scenario(scenario: Scenario) -> str:
    """Serialize back to YAML; re-parsing yields an identical scenario."""
    return yaml.safe_dump(scenario.raw, sort_keys=True)
