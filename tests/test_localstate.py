"""Local tables, overhearing updates, and the distributed feasibility check."""

import numpy as np
import pytest

from csma_sic import (CoeffTable, MissingGainError, PhyConfig, TxTable,
                      build_channel_matrix, check_all_feasible, check_feasible,
                      is_independent, LinkSet, overhear_ack, overhear_cts,
                      overhear_rts, sic_decodable, warm_coeff_table)
from conftest import gain_matrix, random_topology


PHY = PhyConfig(noise_power=0.1, sinr_threshold=2.0, cancel_fraction=1.0,
                radius=10.0)


class TestOverhearing:
    def test_rts_records_sender_gain(self):
        # third node c overhears the RTS of link a -> b and learns g_ac
        ch = gain_matrix(3, {(0, 1): 1.0, (0, 2): 0.2, (1, 2): 0.3})
        table = CoeffTable(owner=2)
        overhear_rts(table, 0, 1, ch)
        assert table.get(0, 2) == 0.2

    def test_rts_at_destination_fills_cts_payload(self):
        ch = gain_matrix(2, {(0, 1): 0.7})
        table = CoeffTable(owner=1)
        overhear_rts(table, 0, 1, ch)
        assert table.get(0, 1) == 0.7

    def test_rts_idempotent(self):
        ch = gain_matrix(3, {(0, 2): 0.2})
        table = CoeffTable(owner=2)
        overhear_rts(table, 0, 1, ch)
        snapshot = dict(table.entries)
        overhear_rts(table, 0, 1, ch)
        assert table.entries == snapshot

    def test_cts_records_sender_and_embedded_link_gain(self):
        # overhearing only the CTS of link e -> f teaches g_ef and g_f,self
        ch = gain_matrix(3, {(0, 1): 0.9, (1, 2): 0.4, (0, 2): 0.1})
        table = CoeffTable(owner=2)
        overhear_cts(table, cts_tx=1, original_tx=0, embedded_gain=0.9, channel=ch)
        assert table.get(1, 2) == 0.4
        assert table.get(0, 1) == 0.9
        assert not table.has(0, 2)  # the RTS was out of earshot

    def test_rts_only_records_sender_only(self):
        # hearing the RTS but not the CTS teaches only the sender gain
        ch = gain_matrix(3, {(0, 2): 0.2, (0, 1): 1.0})
        table = CoeffTable(owner=2)
        overhear_rts(table, 0, 1, ch)
        assert table.has(0, 2)
        assert not table.has(0, 1)

    def test_embedded_gain_matches_true_channel(self):
        ch = gain_matrix(3, {(0, 1): 0.9, (1, 2): 0.4})
        table = CoeffTable(owner=2)
        overhear_cts(table, 1, 0, ch.gain(0, 1), ch)
        assert table.get(0, 1) == ch.gain(0, 1)

    def test_ack_refreshes_gain(self):
        ch = gain_matrix(3, {(1, 2): 0.4})
        table = CoeffTable(owner=2)
        overhear_ack(table, 1, ch)
        assert table.get(1, 2) == 0.4

    def test_monotone_growth(self):
        ch = gain_matrix(4, {(0, 3): 0.2, (1, 3): 0.3, (0, 1): 0.9})
        table = CoeffTable(owner=3)
        sizes = []
        overhear_rts(table, 0, 1, ch)
        sizes.append(len(table))
        overhear_cts(table, 1, 0, 0.9, ch)
        sizes.append(len(table))
        overhear_rts(table, 0, 1, ch)
        sizes.append(len(table))
        assert sizes == sorted(sizes)


class TestTxTable:
    def test_half_duplex_enforced(self):
        t = TxTable(owner=0)
        t.register(1, 2)
        with pytest.raises(ValueError):
            t.register(2, 3)  # node 2 already receiving
        with pytest.raises(ValueError):
            t.register(3, 1)  # node 1 already transmitting
        t.register(1, 2)  # re-registering the same pair is fine
        assert len(t) == 1

    def test_clear(self):
        t = TxTable(owner=0)
        t.register(1, 2)
        t.clear(1)
        assert len(t) == 0
        t.clear(1)  # clearing an absent entry is a no-op


class TestCheckFeasible:
    def test_no_interference(self):
        coeffs = CoeffTable(owner=0, entries={(0, 1): 1.0})
        txs = TxTable(owner=0, active={0: 1})
        assert check_feasible(0, 1, coeffs, txs, PHY)

    def test_matches_global_oracle_on_same_data(self):
        # gains [4, 1] staged-decode case fed through tables
        coeffs = CoeffTable(owner=1, entries={(1, 2): 1.0, (0, 2): 4.0})
        txs = TxTable(owner=1, active={0: 2})
        trial = TxTable(owner=1, active={0: 2, 1: 2})
        # note: two txs to one rx is not a protocol state; model the phy
        # example instead with two receivers
        coeffs = CoeffTable(owner=1, entries={(1, 2): 1.0, (0, 2): 4.0,
                                              (0, 3): 1.0, (1, 3): 0.01})
        trial = TxTable(owner=1, active={0: 3, 1: 2})
        assert check_feasible(1, 2, coeffs, trial, PHY)
        ch = gain_matrix(4, {(1, 2): 1.0, (0, 2): 4.0, (0, 3): 1.0, (1, 3): 0.01})
        assert sic_decodable(1, 2, {0, 1}, ch, PHY)

    def test_threshold_failure(self):
        coeffs = CoeffTable(owner=0, entries={(0, 1): 0.15})
        txs = TxTable(owner=0, active={0: 1})
        # desired gain below beta * n0/P = 0.2
        assert not check_feasible(0, 1, coeffs, txs, PHY)

    def test_missing_entry_is_an_error(self):
        coeffs = CoeffTable(owner=0, entries={(0, 1): 1.0})
        txs = TxTable(owner=0, active={0: 1, 2: 3})
        with pytest.raises(MissingGainError):
            check_feasible(0, 1, coeffs, txs, PHY)


class TestCheckAllFeasible:
    def test_first_transmission(self):
        coeffs = CoeffTable(owner=0, entries={(0, 1): 1.0})
        assert check_all_feasible(0, 1, coeffs, TxTable(owner=0), PHY)

    def test_new_link_breaks_ongoing(self):
        # solo SINRs pass but the joint staged decode at receiver 1 fails:
        # desired gain 1 vs interferer gain 0.6, 1 / 0.7 < 2
        coeffs = CoeffTable(owner=2, entries={
            (0, 1): 1.0, (2, 3): 1.0, (1, 2): 0.6, (0, 3): 0.05,
        })
        txs = TxTable(owner=2, active={0: 1})
        assert not check_all_feasible(2, 3, coeffs, txs, PHY)
        ch = gain_matrix(4, {(0, 1): 1.0, (2, 3): 1.0, (2, 1): 0.6, (0, 3): 0.05})
        assert not sic_decodable(0, 1, {0, 2}, ch, PHY)

    def test_mutual_sic_allows_both(self):
        # near-far: receiver 1 decodes the strong interferer first, then its
        # own signal; receiver 3 sees negligible interference
        coeffs = CoeffTable(owner=2, entries={
            (0, 1): 0.1, (2, 3): 1.0, (1, 2): 4.0, (0, 3): 0.01,
        })
        phy = PhyConfig(noise_power=0.01, sinr_threshold=2.0,
                        cancel_fraction=1.0, radius=10.0)
        txs = TxTable(owner=2, active={0: 1})
        assert check_all_feasible(2, 3, coeffs, txs, phy)
        ch = gain_matrix(4, {(0, 1): 0.1, (2, 3): 1.0, (2, 1): 4.0, (0, 3): 0.01})
        assert sic_decodable(0, 1, {0, 2}, ch, phy)
        assert sic_decodable(2, 3, {0, 2}, ch, phy)

    def test_half_duplex_rejected(self):
        coeffs = CoeffTable(owner=0, entries={(0, 1): 1.0, (1, 2): 1.0,
                                              (0, 2): 1.0})
        txs = TxTable(owner=0, active={1: 2})
        assert not check_all_feasible(0, 1, coeffs, txs, PHY)  # 1 is busy
        assert not check_all_feasible(2, 0, coeffs, txs, PHY)  # 2 is busy


class TestLocalGlobalEquivalence:
    def test_random_instances(self):
        # with full tables and everything in range, the distributed check
        # must equal the global indicator on the augmented set
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 200:
            k = int(rng.integers(2, 5))
            topo = random_topology(rng, k)
            channel = build_channel_matrix(topo)
            active_ids = [i for i in range(k) if rng.random() < 0.5]
            cand = int(rng.integers(0, k))
            if cand in active_ids:
                continue
            base = LinkSet.from_ids(active_ids, k)
            if not is_independent(base, topo, channel):
                continue
            link = topo.links[cand]
            coeffs = warm_coeff_table(topo, channel, link.tx)
            txs = TxTable(owner=link.tx)
            for i in active_ids:
                txs.register(topo.links[i].tx, topo.links[i].rx)
            local = check_all_feasible(link.tx, link.rx, coeffs, txs, topo.phy)
            glob = is_independent(base.add(cand), topo, channel)
            assert local == glob
            checked += 1
