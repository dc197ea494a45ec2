"""Scenario parsing, serialization round-trips, and the command line."""

import copy
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from csma_sic import LinkSet, ScenarioError, dump_scenario, load_scenario
from csma_sic.cli import _set_names, main
from csma_sic import scenario
from csma_sic.scenario import _LOADER, _read_yaml, parse_scenario
from conftest import random_topology, triangle_topology

ROOT = Path(__file__).resolve().parent.parent
COMMITTED_SCENARIOS = sorted(ROOT.glob("scenarios/*.yaml")) + sorted(
    ROOT.glob("perfbench/scenarios/*.yaml"))


def triangle_scenario_dict():
    topo = triangle_topology()
    return {
        "phy": {
            "noise_power": 0.1,
            "sinr_threshold": 2.0,
            "cancel_fraction": 1.0,
            "radius": 5.0,
            "path_loss_exponent": 3.0,
        },
        "topology": {
            "nodes": [
                {"id": n.id, "pos": [float(n.x), float(n.y)]}
                for n in topo.nodes
            ],
            "links": [
                {"id": l.id, "tx": l.tx, "rx": l.rx} for l in topo.links
            ],
        },
        "rates": {"r": [0.0, 0.0, 0.0]},
        "sim": {"horizon": 5000.0, "seed": 7},
        "capacity": {"x": [2 / 3, 2 / 3, 2 / 3]},
        "adapt": {
            "target_rates": [0.3, 0.3, 0.3],
            "update_period": 100.0,
            "max_updates": 20,
        },
    }


def typed(v):
    """``v`` with each scalar paired with its type, so 1 and 1.0 differ."""
    if isinstance(v, dict):
        return {typed(k): typed(x) for k, x in v.items()}
    if isinstance(v, list):
        return [typed(x) for x in v]
    return type(v), v


@pytest.fixture
def scenario_path(tmp_path):
    p = tmp_path / "triangle.yaml"
    p.write_text(yaml.safe_dump(triangle_scenario_dict()))
    return p


class TestParsing:
    def test_loads(self, scenario_path):
        scn = load_scenario(scenario_path)
        assert scn.topology.n_links == 3
        assert scn.sim.horizon == 5000.0
        assert scn.adapt.max_updates == 20
        assert scn.capacity_x == pytest.approx([2 / 3] * 3)

    def test_roundtrip(self, scenario_path, tmp_path):
        scn = load_scenario(scenario_path)
        text = dump_scenario(scn)
        p2 = tmp_path / "again.yaml"
        p2.write_text(text)
        scn2 = load_scenario(p2)
        assert scn2.raw == scn.raw
        assert dump_scenario(scn2) == text

    def test_unknown_keys_rejected_everywhere(self):
        base = triangle_scenario_dict()
        bad_edits = [
            ("simulator", {}, None),
            ("phy", None, ("bandwidth", 1.0)),
            ("rates", None, ("gamma", [1, 2, 3])),
            # rates are given as exponents r alone: lambda = exp(r) is no key
            ("rates", None, ("lambda", [1, 2, 3])),
            ("sim", None, ("duration", 10)),
            ("adapt", None, ("momentum", 0.9)),
            ("adapt", None, ("arrivals", "poisson")),
            ("adapt", None, ("r_cap", 25.0)),
            ("capacity", None, ("y", [1, 1, 1])),
        ]
        for key, val, insert in bad_edits:
            d = copy.deepcopy(base)
            if insert is None:
                d[key] = val
            else:
                d[key][insert[0]] = insert[1]
            with pytest.raises(ScenarioError):
                parse_scenario(d)

    def test_wrong_length_vectors(self):
        for section, value in [
            ("rates", {"r": [0.0, 0.0]}),
            ("capacity", {"x": [0.5]}),
            ("adapt", {"target_rates": [0.5, 0.5]}),
        ]:
            d = triangle_scenario_dict()
            d[section] = value
            with pytest.raises(ScenarioError):
                parse_scenario(d)

    def test_solo_infeasible_rejected(self):
        d = triangle_scenario_dict()
        d["phy"]["noise_power"] = 2.0
        with pytest.raises(ScenarioError):
            parse_scenario(d)

    def test_non_finite_horizon_rejected(self, scenario_path):
        text = scenario_path.read_text()
        assert "horizon: 5000.0" in text
        scenario_path.write_text(text.replace("horizon: 5000.0", "horizon: .nan"))
        with pytest.raises(ScenarioError):
            load_scenario(scenario_path)

    @pytest.mark.parametrize("rates", [{"r": [float("nan"), 0.0, 0.0]},
                                       {"mu": [1.0, float("inf"), 1.0]}])
    def test_non_finite_rates_rejected(self, rates):
        d = triangle_scenario_dict()
        d["rates"] = rates
        with pytest.raises(ScenarioError):
            parse_scenario(d)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_capacity_rejected(self, bad):
        d = triangle_scenario_dict()
        d["capacity"] = {"x": [bad, 0.0, 0.0]}
        with pytest.raises(ScenarioError):
            parse_scenario(d)

    @pytest.mark.parametrize("path", COMMITTED_SCENARIOS,
                             ids=lambda p: str(p.relative_to(ROOT)))
    def test_loader_matches_safe_load(self, path):
        # the pure-Python safe loader is the reference: same values, same types
        text = path.read_text()
        assert typed(_read_yaml(path)) == typed(yaml.safe_load(text))

    def test_libyaml_loader_used_when_present(self):
        expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert _LOADER is expected

    def test_missing_topology(self):
        with pytest.raises(ScenarioError):
            parse_scenario({"phy": {}})


@pytest.fixture(params=["libyaml", "pure-python"])
def yaml_loader(request, monkeypatch):
    """Compose with libyaml when PyYAML has it, and with the pure-Python
    parser, the fallback where it does not."""
    if request.param == "pure-python":
        monkeypatch.setattr(scenario, "_LOADER", yaml.SafeLoader)
    elif not yaml.__with_libyaml__:
        pytest.skip("PyYAML was built without libyaml")


class TestYamlReader:
    """``load_scenario`` reads YAML as ``yaml.safe_load`` does, but refuses
    tags outside the core schema and recursive aliases."""

    SAME_AS_SAFE_LOAD = {
        "anchors": "a: &x [1, 2.5, {b: c}]\nd: *x\ne: &y 7\nf: [*y, *y]\n",
        "merge": ("base: &b {noise_power: 0.1, radius: 5.0}\n"
                  "phy:\n  <<: *b\n  radius: 6.0\n"),
        "merge-list": ("p: &p {a: 1, b: 2}\nq: &q {b: 3, c: 4}\n"
                       "r: {<<: [*p, *q], d: 5}\n"),
        "merge-nested": ("p: &p {a: 1}\nq: &q {<<: *p, b: 2}\n"
                         "r: {<<: *q, c: 3}\n"),
        "core-tags": ("a: !!float 1\nb: !!str 5\nc: !!int \"7\"\n"
                      "d: !!bool yes\ne: !!null ''\nf: !!seq [1]\n"
                      "g: !!map {h: 1}\ni: !!str\nj: ! 12\n"),
        "yaml11": ("a: .inf\nb: -.Inf\nc: 1_000\nd: 0x1f\ne: yes\n"
                   "f: Off\ng: 017\nh: 0b101\ni: 1:30\nj: 1.5e+3\n"
                   "k: 1e3\nl: ~\nm:\nn: +12\no: -0.0\np: 6.8523015e+5\n"
                   "q: 190:20:30.15\n"),
        "strings": ("a: 'yes'\nb: \"1.0\"\nc: plain text\nd: |\n  block\n"
                    "e: [x, 'y', \"z\"]\n1: int key\n2.5: float key\n"
                    "null: null key\ntrue: bool key\n"),
        "duplicate-keys": "a: 1\nb: 2\na: 3\n",
        "not-a-mapping": "[1, 2, 3]\n",
        "empty": "",
    }

    @pytest.mark.parametrize("name", sorted(SAME_AS_SAFE_LOAD))
    def test_same_as_safe_load(self, name, tmp_path, yaml_loader):
        text = self.SAME_AS_SAFE_LOAD[name]
        p = tmp_path / "doc.yaml"
        p.write_text(text)
        assert typed(_read_yaml(p)) == typed(yaml.safe_load(text))

    def test_aliases_share_one_value(self, tmp_path, yaml_loader):
        """Forty levels of aliases that each double the one before: the
        safe loader builds each level once and so does the reader, not
        2^40 times."""
        lines = ["l0: &l0 [1]"] + [f"l{i}: &l{i} [*l{i - 1}, *l{i - 1}]"
                                   for i in range(1, 41)]
        p = tmp_path / "deep.yaml"
        p.write_text("\n".join(lines) + "\n")
        data = _read_yaml(p)
        assert data["l40"][0] is data["l40"][1] is data["l39"]
        assert data["l1"] == [[1], [1]]

    def test_deep_nesting_refused(self, tmp_path, yaml_loader, capsys):
        """Nesting past Python's recursion limit is an error with exit code
        2, not a traceback: 5,000 levels, where a scenario has four."""
        p = tmp_path / "deep.yaml"
        p.write_text("topology: " + "[" * 5000 + "]" * 5000 + "\n")
        assert main(["analyze", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {p}: ")
        assert captured.out == ""

    NO_TOPOLOGY = "topology: {nodes: [], links: []}\n"

    @pytest.mark.parametrize("text, message", [
        pytest.param("topology: !!set {a, b}\n", "tag:yaml.org,2002:set",
                     id="set"),
        pytest.param(NO_TOPOLOGY + "sim: {horizon: !!timestamp 2001-12-14}\n",
                     "tag:yaml.org,2002:timestamp", id="timestamp"),
        pytest.param(NO_TOPOLOGY + "sim: {horizon: 2001-12-14}\n",
                     "tag:yaml.org,2002:timestamp", id="implicit-timestamp"),
        pytest.param(NO_TOPOLOGY + "sim: {horizon: !!binary aGVsbG8=}\n",
                     "tag:yaml.org,2002:binary", id="binary"),
        pytest.param(NO_TOPOLOGY + "sim: !!omap [{horizon: 1.0}]\n",
                     "tag:yaml.org,2002:omap", id="omap"),
        pytest.param(NO_TOPOLOGY + "sim: {horizon: !metres 5.0}\n",
                     "!metres", id="local-tag"),
        pytest.param(NO_TOPOLOGY + "sim: !!python/tuple [1, 2]\n",
                     "tag:yaml.org,2002:python/tuple", id="python-tag"),
        pytest.param("topology: &t {nodes: [*t], links: []}\n",
                     "recursive alias", id="recursive-mapping"),
        pytest.param("topology: {nodes: &n [1, *n], links: []}\n",
                     "recursive alias", id="recursive-sequence"),
        pytest.param(NO_TOPOLOGY + "sim: {horizon: !!float abc}\n",
                     "'abc' is not a valid tag:yaml.org,2002:float",
                     id="bad-float"),
        pytest.param(NO_TOPOLOGY + "sim: {seed: !!int ''}\n",
                     "'' is not a valid tag:yaml.org,2002:int", id="bad-int"),
        pytest.param(NO_TOPOLOGY + "sim: {seed: !!bool maybe}\n",
                     "'maybe' is not a valid tag:yaml.org,2002:bool",
                     id="bad-bool"),
        pytest.param("? [1, 2]\n: 3\n", "unhashable key",
                     id="unhashable-key"),
        pytest.param(NO_TOPOLOGY + "a: {<<: 1}\n", "expected a mapping",
                     id="merge-scalar"),
    ])
    def test_refused(self, text, message, tmp_path, yaml_loader, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text(text)
        for command in ("analyze", "simulate"):
            assert main([command, str(p)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: {p}: ")
            assert message in captured.err
            assert captured.out == ""
        with pytest.raises(ScenarioError, match=r"line \d+"):
            load_scenario(p)


class TestCli:
    @pytest.mark.parametrize("width", [0, 1, 25, 62, 100])
    def test_set_names_print_as_link_sets(self, width):
        """The CLI's set names are ``str(LinkSet)``, without a LinkSet."""
        rng = np.random.default_rng(width)
        full = (1 << width) - 1
        masks = [0, full] + [
            int.from_bytes(rng.bytes(13), "little") & full
            & int.from_bytes(rng.bytes(13), "little") for _ in range(200)]
        names = _set_names(masks, width)
        assert names == [str(LinkSet(bits, width)) for bits in masks]
        assert names[0] == "{}"

    def test_analyze(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "a.csv"
        assert main(["analyze", str(scenario_path), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("quantity,id,analytical,empirical,abs_diff\n")
        # throughput rows for three links plus state probabilities
        assert "tau,0," in text
        assert '"{0,1}"' in text or "{0,1}" in text
        captured = capsys.readouterr()
        assert "tau[0]" in captured.out
        assert "feasible sets: 7" in captured.out

    def test_simulate_matches_analysis(self, scenario_path, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["simulate", str(scenario_path), "--horizon", "50000",
                     "--out", str(out)]) == 0
        import csv
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        tau_rows = [r for r in rows if r["quantity"] == "tau"]
        assert len(tau_rows) == 3
        for r in tau_rows:
            assert abs(float(r["analytical"]) - float(r["empirical"])) < 0.05

    def test_simulate_deterministic_output(self, scenario_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", str(scenario_path), "--out", str(a)])
        main(["simulate", str(scenario_path), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, scenario_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", str(scenario_path), "--out", str(a)])
        main(["simulate", str(scenario_path), "--seed", "99", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_capacity_verdicts(self, scenario_path, capsys):
        assert main(["capacity", str(scenario_path)]) == 0
        assert "inside capacity region: yes" in capsys.readouterr().out
        assert main(["capacity", str(scenario_path), "--x", "0.7,0.7,0.7"]) == 0
        assert "inside capacity region: no" in capsys.readouterr().out

    def test_adapt_runs(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "adapt.csv"
        assert main(["adapt", str(scenario_path), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 21  # header plus one row per update
        assert lines[0].startswith("update,t,")

    def test_adapt_warns_outside_region(self, scenario_path, tmp_path, capsys):
        d = triangle_scenario_dict()
        d["adapt"]["target_rates"] = [0.9, 0.9, 0.9]
        d["adapt"]["max_updates"] = 5
        p = tmp_path / "hot.yaml"
        p.write_text(yaml.safe_dump(d))
        assert main(["adapt", str(p)]) == 0
        assert "outside the capacity region" in capsys.readouterr().out

    @pytest.mark.parametrize("mu, warns", [(1.0, True), (2.0, False)])
    def test_adapt_region_check_in_busy_time(self, tmp_path, capsys, mu,
                                             warns):
        # 0.9 packets per unit time keep a link busy 0.9 / mu of the time;
        # the triangle's region reaches 2/3 on every link
        d = triangle_scenario_dict()
        d["rates"]["mu"] = [mu] * 3
        d["adapt"]["target_rates"] = [0.9, 0.9, 0.9]
        d["adapt"]["max_updates"] = 5
        p = tmp_path / "hot.yaml"
        p.write_text(yaml.safe_dump(d))
        assert main(["adapt", str(p)]) == 0
        out = capsys.readouterr().out
        assert ("outside the capacity region" in out) == warns

    def test_bad_scenario_exit_code(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("topology: 3\n")
        assert main(["analyze", str(p)]) == 2

    def test_malformed_yaml_exit_code(self, tmp_path, capsys):
        p = tmp_path / "broken.yaml"
        p.write_text("topology: [1, 2\nphy: {a: 1}\n")
        assert main(["analyze", str(p)]) == 2
        captured = capsys.readouterr()
        # the parser's own wording differs between libyaml and pure Python
        assert captured.err.startswith(f"error: {p}: ")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["analyze", "simulate", "capacity",
                                         "adapt"])
    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_unwritable_out_exit_code(self, scenario_path, tmp_path, command,
                                      target, capsys):
        """An --out in a missing directory, or naming a directory, is an
        error message and exit code 2, not a traceback."""
        out = tmp_path / target
        assert main([command, str(scenario_path), "--horizon", "200",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command", ["analyze", "simulate", "adapt"])
    def test_x_only_for_capacity(self, scenario_path, command, capsys):
        """``--x`` is the capacity command's rate vector; with any other
        command it is a usage error, exit code 2."""
        with pytest.raises(SystemExit) as exc:
            main([command, str(scenario_path), "--x", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--x" in captured.err and captured.out == ""

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ("analyze", "simulate", "capacity", "adapt"):
            assert command in out

    @pytest.mark.parametrize("command, options", [
        ("simulate", ["--seed", "2", "--horizon", "500"]),
        ("capacity", ["--x", "0.3,0.3,0.3"]),
    ])
    def test_options_in_any_order(self, scenario_path, tmp_path, command,
                                  options, capsys):
        """Options may come before, between or after the command and the
        scenario, with the same output and CSV each time."""
        path = str(scenario_path)
        runs = []
        for i, argv in enumerate(([command, path] + options,
                                  options + [command, path],
                                  [command] + options + [path])):
            out = tmp_path / f"{i}.csv"
            assert main(argv + ["--out", str(out)]) == 0
            runs.append((capsys.readouterr().out, out.read_bytes()))
        assert runs[0] == runs[1] == runs[2]

    def test_non_utf8_file_exit_code(self, tmp_path, capsys):
        p = tmp_path / "latin1.yaml"
        p.write_bytes(b"topology:\n  nodes: []\n  links: []\n# caf\xe9\n")
        with pytest.raises(ScenarioError, match="utf-8"):
            load_scenario(p)
        assert main(["analyze", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {p}: ")
        assert captured.out == ""

    @pytest.mark.parametrize("horizon", ["-1", "nan", "inf"])
    def test_bad_horizon_override_exit_code(self, scenario_path, horizon,
                                            capsys):
        assert main(["simulate", str(scenario_path), "--horizon", horizon]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("key, value", [
        ("update_period", float("nan")),
        ("target_rates", [0.3, float("nan"), 0.3]),
    ])
    def test_non_finite_adapt_exit_code(self, tmp_path, key, value, capsys):
        d = triangle_scenario_dict()
        d["adapt"][key] = value
        p = tmp_path / "bad_adapt.yaml"
        p.write_text(yaml.safe_dump(d))
        assert main(["adapt", str(p)]) == 2
        assert capsys.readouterr().err.startswith("error: adapt: ")

    @pytest.mark.parametrize("key, value, message", [
        ("max_updates", 2.5, "max_updates must be an integer"),
        ("max_updates", True, "max_updates must be an integer"),
        ("max_updates", "20", "max_updates must be an integer"),
    ])
    def test_bad_adapt_schedule_exit_code(self, tmp_path, key, value, message,
                                          capsys):
        d = triangle_scenario_dict()
        d["adapt"][key] = value
        p = tmp_path / "bad_adapt.yaml"
        p.write_text(yaml.safe_dump(d))
        assert main(["adapt", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: adapt: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("key, value", [
        ("tx_power", float("nan")),
        ("noise_power", float("nan")),
        ("noise_power", float("inf")),
        ("sinr_threshold", float("nan")),
        ("sinr_threshold", [2.0, float("nan"), 2.0]),
        ("far_interference", float("nan")),
        ("radius", float("nan")),
        ("path_loss_exponent", float("nan")),
        ("path_loss_exponent", 0.0),
        ("path_loss_exponent", -3.0),
        ("sinr_threshold", "2.0"),
        ("sinr_threshold", [2.0, "2.0", 2.0]),
        ("sinr_threshold", True),
        ("cancel_fraction", True),
        ("path_loss_exponent", True),
        ("tx_power", True),
    ])
    @pytest.mark.parametrize("argv", [["analyze"],
                                      ["capacity", "--x", "0.9,0.9,0.9"]])
    def test_bad_phy_exit_code(self, tmp_path, key, value, argv, capsys):
        d = triangle_scenario_dict()
        d["phy"][key] = value
        p = tmp_path / "bad_phy.yaml"
        p.write_text(yaml.safe_dump(d))
        assert main([argv[0], str(p), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: phy: ")
        assert captured.out == ""

    def test_non_finite_position_exit_code(self, tmp_path, capsys):
        d = triangle_scenario_dict()
        d["topology"]["nodes"][1]["pos"] = [float("nan"), 0.0]
        p = tmp_path / "bad_pos.yaml"
        p.write_text(yaml.safe_dump(d))
        assert main(["analyze", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: topology: ")
        assert captured.out == ""

    @pytest.mark.parametrize("kind, index, key, value", [
        ("nodes", 1, "id", 1.9),
        ("nodes", 1, "id", True),
        ("nodes", 1, "id", "1"),
        ("nodes", 1, "pos", ["abc", 0.0]),
        ("nodes", 1, "pos", [1.0, 0.0, 9.0]),
        ("nodes", 1, "pos", [True, 0.0]),
        ("nodes", 1, "pos", ["1.0", 0.0]),
        ("links", 0, "id", 0.5),
        ("links", 0, "tx", 0.0),
        ("links", 1, "rx", True),
        ("links", 1, "rx", -1),
        ("links", 1, "rx", 7),
    ])
    def test_bad_topology_entry_exit_code(self, tmp_path, kind, index, key,
                                          value, capsys):
        d = triangle_scenario_dict()
        d["topology"][kind][index][key] = value
        p = tmp_path / "bad_topology.yaml"
        p.write_text(yaml.safe_dump(d))
        assert main(["analyze", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: topology: ")
        assert captured.out == ""

    def test_zero_link_simulate(self, tmp_path, capsys):
        # the family of no links is the empty set alone, of width 0
        d = {"topology": {"nodes": [{"id": 0, "pos": [0.0, 0.0]}],
                          "links": []},
             "sim": {"horizon": 100.0},
             "capacity": {"x": []},
             "adapt": {"target_rates": [], "max_updates": 3}}
        p = tmp_path / "empty.yaml"
        p.write_text(yaml.safe_dump(d))
        for command, lines in (
                ("simulate",
                 ["occupancy {}: analytical=1 empirical=1 |diff|=0"]),
                ("analyze", ["feasible sets: 1", "Q{} = 1"]),
                ("capacity", ["inside capacity region: yes", "alpha{} = 1"]),
                ("adapt", ["updates: 3, final-quarter mean service rate: []"])):
            assert main([command, str(p)]) == 0, command
            captured = capsys.readouterr()
            assert all(line + "\n" in captured.out for line in lines), command
            assert captured.err == "", command

    def test_no_node_scenario(self, tmp_path, capsys):
        # no nodes and no links: the family is the empty set alone
        d = {"topology": {"nodes": [], "links": []},
             "sim": {"horizon": 100.0},
             "capacity": {"x": []},
             "adapt": {"target_rates": [], "max_updates": 3}}
        p = tmp_path / "none.yaml"
        p.write_text(yaml.safe_dump(d))
        for command, lines in (
                ("simulate",
                 ["occupancy {}: analytical=1 empirical=1 |diff|=0"]),
                ("analyze", ["feasible sets: 1", "Q{} = 1"]),
                ("capacity", ["inside capacity region: yes", "alpha{} = 1"]),
                ("adapt", ["updates: 3, final-quarter mean service rate: []"])):
            assert main([command, str(p)]) == 0, command
            captured = capsys.readouterr()
            assert all(line + "\n" in captured.out for line in lines), command
            assert captured.err == "", command

    @pytest.mark.parametrize("r", [800.0, -800.0])
    def test_rates_that_overflow_or_underflow(self, tmp_path, r, capsys):
        """``exp(r)`` is infinite or zero: ``simulate`` refuses it,
        ``analyze`` still solves the chain with these exponents, and
        ``adapt`` starts from r = 0 whatever ``rates.r`` says."""
        d = triangle_scenario_dict()
        d["rates"] = {"r": [r, 0.0, 0.0]}
        d["sim"]["horizon"] = 100.0
        p = tmp_path / "rates.yaml"
        p.write_text(yaml.safe_dump(d))
        assert main(["simulate", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: rates must be finite and positive, "
                                "one per link\n")
        assert captured.out == ""
        for command in ("analyze", "adapt"):
            assert main([command, str(p)]) == 0, command
            assert capsys.readouterr().err == "", command

    def test_service_rates_without_finite_mean(self, tmp_path, capsys):
        """``mu = 1e-320`` has no finite mean holding time: every command
        refuses the scenario with one message, and numpy warns of nothing.
        Before, ``simulate`` warned and ran with an infinite holding time,
        ``adapt`` failed on ``target_rates / mu`` and ``analyze`` solved
        the chain."""
        d = triangle_scenario_dict()
        d["rates"] = {"mu": [1.0, 1.0e-320, 1.0]}
        p = tmp_path / "mu.yaml"
        p.write_text(yaml.safe_dump(d))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command in ("analyze", "simulate", "capacity", "adapt"):
                assert main([command, str(p)]) == 2, command
                captured = capsys.readouterr()
                assert captured.err == (
                    "error: rates: service rates must have finite mean "
                    "holding times 1/mu\n"), command
                assert captured.out == "", command

    def test_partial_range_scenario(self, tmp_path, capsys):
        # not every node hears every other; the simulator stays inside the
        # family, so each simulated occupancy has an analytical value
        path = ROOT / "scenarios" / "sparse-k10.yaml"
        topo = load_scenario(path).topology
        assert not all(topo.in_range(a, b) for a in range(topo.n_nodes)
                       for b in range(a))
        assert main(["analyze", str(path)]) == 0
        assert "feasible sets: 252\n" in capsys.readouterr().out
        out = tmp_path / "s.csv"
        assert main(["simulate", str(path), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "tau 0: analytical=" in captured.out
        import csv
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        occupied = [r for r in rows if r["quantity"] == "occupancy"
                    and float(r["empirical"]) > 0]
        assert len(occupied) > 100
        assert all(r["analytical"] for r in occupied)
        assert len([r for r in rows if r["quantity"] == "occupancy"]) == 252

    def test_partial_range_above_the_cap(self, capsys):
        # the topology its header names, drawn again; analyze refuses it and
        # a short simulate runs
        path = ROOT / "scenarios" / "sparse-k50.yaml"
        topo = load_scenario(path).topology
        drawn = random_topology(np.random.default_rng(1), 50, radius=6.0,
                                area=20.0 * np.sqrt(50 / 16))
        assert (topo.nodes, topo.links, topo.phy) == (
            drawn.nodes, drawn.links, drawn.phy)
        assert main(["analyze", str(path)]) == 2
        assert "enumeration cap" in capsys.readouterr().err
        assert main(["simulate", str(path), "--horizon", "20"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "tau 49: empirical=" in captured.out

    @pytest.mark.parametrize("section, value", [
        ("sim", {"seed": None}),
        ("sim", {"horizon": None}),
        ("sim", {"seed": [1]}),
        ("sim", {"warmup": [1.0]}),
        ("capacity", {}),
        ("capacity", {"x": "abc"}),
        ("rates", {"r": "abc"}),
        ("rates", {"mu": "abc"}),
        ("rates", {"r": [0.0, 0.0]}),
    ])
    @pytest.mark.parametrize("command", ["analyze", "simulate", "capacity",
                                         "adapt"])
    def test_malformed_section_exit_code(self, tmp_path, section, value,
                                         command, capsys):
        d = triangle_scenario_dict()
        d[section] = value
        p = tmp_path / "malformed.yaml"
        p.write_text(yaml.safe_dump(d))
        assert main([command, str(p), "--horizon", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {section}: ")
        assert captured.out == ""

    @pytest.mark.parametrize("section, key, value", [
        ("sim", "horizon", "100"),
        ("sim", "horizon", True),
        ("sim", "warmup", "10"),
        ("rates", "r", ["0", 0.0, 0.0]),
        ("rates", "r", [0.0, True, 0.0]),
        ("rates", "mu", [1.0, "1", 1.0]),
        ("capacity", "x", ["0.5", 0.5, 0.5]),
        ("capacity", "x", [0.5, False, 0.5]),
        ("adapt", "target_rates", [0.3, "0.3", 0.3]),
        ("adapt", "update_period", "100"),
    ])
    def test_non_numeric_field_exit_code(self, tmp_path, section, key, value,
                                         capsys):
        d = triangle_scenario_dict()
        d[section][key] = value
        p = tmp_path / "non_numeric.yaml"
        p.write_text(yaml.safe_dump(d))
        assert main(["simulate", str(p), "--horizon", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {section}: {key} ")
        assert "real number" in captured.err
        assert captured.out == ""

    def test_yaml11_exponent_without_dot_exit_code(self, scenario_path,
                                                   capsys):
        # YAML 1.1 needs a dot in a float, so both loaders read 5e3 as a str
        text = scenario_path.read_text()
        assert "horizon: 5000.0" in text
        scenario_path.write_text(text.replace("horizon: 5000.0",
                                              "horizon: 5e3"))
        assert main(["simulate", str(scenario_path), "--horizon", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: sim: horizon '5e3' is not a real "
                                "number\n")
        assert captured.out == ""

    @pytest.mark.parametrize("seed", [1.7, True, -3, "5"])
    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_bad_seed_exit_code(self, tmp_path, seed, command, capsys):
        d = triangle_scenario_dict()
        d["sim"]["seed"] = seed
        p = tmp_path / "bad_seed.yaml"
        p.write_text(yaml.safe_dump(d))
        assert main([command, str(p), "--horizon", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: sim: seed must be a nonnegative "
                                "integer\n")
        assert captured.out == ""

    def test_negative_seed_override_exit_code(self, scenario_path, capsys):
        assert main(["simulate", str(scenario_path), "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be a nonnegative integer\n"
        assert captured.out == ""

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.yaml")]) == 2

    def test_scipy_solvers_imported_on_first_use(self):
        # a fresh interpreter: simulation-only K > 20 runs never load the LP
        # or logsumexp, and capacity still loads and uses them afterwards
        script = """
import contextlib, io, sys
from csma_sic.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["simulate", "perfbench/scenarios/dense-k25.yaml",
                   "--horizon", "5"]),
             main(["analyze", "perfbench/scenarios/dense-k25.yaml"])]
print(codes, [m for m in ("scipy.optimize", "scipy.special")
              if m in sys.modules])
print(main(["capacity", "scenarios/triangle.yaml"]))
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=300)
        lines = proc.stdout.splitlines()
        assert proc.returncode == 0, proc.stderr
        assert lines[0] == "[0, 2] []"
        assert "inside capacity region: yes" in lines
        assert lines[-1] == "0"

    def test_enumeration_cap_reported(self, tmp_path):
        # 25 far-apart links cannot be enumerated, so analyze must refuse
        nodes, links = [], []
        for k in range(25):
            nodes.append({"id": 2 * k, "pos": [50.0 * k, 0.0]})
            nodes.append({"id": 2 * k + 1, "pos": [50.0 * k + 1.0, 0.0]})
            links.append({"id": k, "tx": 2 * k, "rx": 2 * k + 1})
        d = {
            "phy": {"noise_power": 0.1, "sinr_threshold": 2.0, "radius": 5.0},
            "topology": {"nodes": nodes, "links": links},
        }
        p = tmp_path / "big.yaml"
        p.write_text(yaml.safe_dump(d))
        assert main(["analyze", str(p)]) == 2
