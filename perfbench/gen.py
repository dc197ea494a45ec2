"""Generate the benchmark's random scenario files.

Usage: python3 perfbench/gen.py [--seed N] [--out-dir DIR]

Writes ``triangle.yaml``, ``dense-k25.yaml`` and ``spread-k12.yaml``.

* ``triangle``: the repository's ``scenarios/triangle.yaml`` with a horizon
  of 5e3 and 50 adaptation updates, so that one command lasts a fraction
  of a second.

The random topologies are drawn
from ``numpy.random.default_rng(seed)`` with the construction of the test
suite's ``random_topology``: node-disjoint, solo-feasible links of random
length and direction, with a radius of 100 so every node hears every other.

* ``dense-k25``: 25 links in an 8 x 8 area. K is above the enumeration cap,
  so the exact engine refuses it and only the simulator runs.
* ``spread-k12``: 12 links in a 30 x 30 area, so a large share of the
  2**12 subsets is feasible and the exact engine does real work.

Capacity and adaptation targets are inside the capacity region by
construction: 0.9 x the exact throughput ``tau`` on ``spread-k12``, and
0.9 / K per link on ``dense-k25`` (time sharing over the K solo-feasible
singletons serves 1 / K to every link).

The files committed next to this script are the output for the default
seed; the benchmark regenerates them and compares bytes on every run.
"""

import argparse
import math
import os
import sys

import numpy as np
import yaml

DEFAULT_SEED = 7

# name -> (links, area side, horizon, adapt update period, adapt updates)
WORKLOADS = {
    "dense-k25": (25, 8.0, 50.0, 5.0, 10),
    "spread-k12": (12, 30.0, 50.0, 10.0, 5),
}
TRIANGLE_SOURCE = "scenarios/triangle.yaml"
TRIANGLE = {"horizon": 5000.0, "max_updates": 50}

_NOISE = 0.01
_BETA = 1.5
_RADIUS = 100.0


def _phy():
    return {"tx_power": 1.0, "noise_power": _NOISE, "sinr_threshold": _BETA,
            "cancel_fraction": 1.0, "radius": _RADIUS}


def random_nodes(rng, n_links, area):
    """Node positions of a solo-feasible random topology, in draw order."""
    from csma_sic import (LinkSet, NetworkTopology, PhyConfig,
                          build_channel_matrix, is_independent)

    phy = PhyConfig(**_phy())
    max_len = min((_NOISE * _BETA) ** (-1.0 / 3.0) * 0.95, area / 2)
    while True:
        nodes = []
        for _ in range(n_links):
            tx = rng.uniform(0.0, area, size=2)
            ang = rng.uniform(0.0, 2 * math.pi)
            length = rng.uniform(1.0, max(1.05, max_len))
            rx = tx + length * np.array([math.cos(ang), math.sin(ang)])
            nodes.append((float(tx[0]), float(tx[1])))
            nodes.append((float(rx[0]), float(rx[1])))
        if len(set(nodes)) != len(nodes):
            continue
        topo = NetworkTopology(
            tuple((i, x, y) for i, (x, y) in enumerate(nodes)),
            tuple((k, 2 * k, 2 * k + 1) for k in range(n_links)), phy)
        channel = build_channel_matrix(topo)
        if all(is_independent(LinkSet.from_ids([k], n_links), topo, channel)
               for k in range(n_links)):
            return nodes


def triangle_yaml():
    """``scenarios/triangle.yaml`` with the benchmark's horizon and updates."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, TRIANGLE_SOURCE)) as fh:
        data = yaml.safe_load(fh)
    data["sim"]["horizon"] = TRIANGLE["horizon"]
    data["adapt"]["max_updates"] = TRIANGLE["max_updates"]
    header = (f"# Generated by perfbench/gen.py from {TRIANGLE_SOURCE}; "
              f"do not edit.\n")
    return header + yaml.safe_dump(data, sort_keys=False,
                                   default_flow_style=None, width=100)


def scenario_yaml(name, seed=DEFAULT_SEED, family=None):
    """YAML text of one workload's scenario for the given topology seed.

    ``family``, the feasible family of this very topology, skips the
    enumeration when the caller has it already.
    """
    if name == "triangle":
        return triangle_yaml()
    from csma_sic import (EnumerationCapError, enumerate_feasible,
                          expected_throughput, RateParams)
    from csma_sic.scenario import parse_scenario

    k, area, horizon, period, updates = WORKLOADS[name]
    nodes = random_nodes(np.random.default_rng(seed), k, area)
    data = {
        "phy": _phy(),
        "topology": {
            "nodes": [{"id": i, "pos": [x, y]} for i, (x, y) in enumerate(nodes)],
            "links": [{"id": i, "tx": 2 * i, "rx": 2 * i + 1} for i in range(k)],
        },
        "rates": {"r": [0.0] * k},
        "sim": {"horizon": horizon, "seed": 1},
    }
    scn = parse_scenario(data)
    try:
        if family is None:
            family = enumerate_feasible(scn.topology, scn.channel)
        target = 0.9 * expected_throughput(family, RateParams.uniform(k))
    except EnumerationCapError:
        target = np.full(k, 0.9 / k)
    target = [float(v) for v in target]
    data["capacity"] = {"x": target}
    data["adapt"] = {"target_rates": list(target), "update_period": period,
                     "max_updates": updates}
    header = (f"# Generated by perfbench/gen.py --seed {seed}; do not edit.\n"
              f"# {k} links, {area:g} x {area:g} area, every node in range.\n")
    return header + yaml.safe_dump(data, sort_keys=False,
                                   default_flow_style=None, width=100)


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="topology seed (default %(default)s)")
    parser.add_argument("--out-dir", default=os.path.join(here, "scenarios"))
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    os.makedirs(args.out_dir, exist_ok=True)
    for name in ("triangle", *WORKLOADS):
        path = os.path.join(args.out_dir, f"{name}.yaml")
        with open(path, "w") as fh:
            fh.write(scenario_yaml(name, args.seed))
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
