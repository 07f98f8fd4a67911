import json

import pytest

from klbasis.checks import (
    CheckReport,
    check_p1,
    check_p2,
    check_p3,
    check_strategy_invariance,
    check_w0_identity,
    column_summary,
    failure_lines,
)
from klbasis import hecke
from klbasis.hecke import DESCENT_STRATEGIES, PolyStore, column
from klbasis.klbase import KLStore
from klbasis.ring import LaurentPoly, SymLaurentPoly, qpoly_from_sym
from test_hecke import planted_wgraph


class TestReport:
    def test_pass_iff_no_counterexamples(self):
        r = CheckReport("demo", "A1")
        assert r.passed and not r.counterexamples
        r.record_failure("bad thing")
        assert not r.passed and r.counterexamples == ["bad thing"]

    def test_json_round_trip(self):
        r = CheckReport("demo", "A1", counters={"pairs": 3})
        data = json.loads(r.to_json())
        assert data == {
            "check": "demo",
            "group": "A1",
            "pass": True,
            "counters": {"pairs": 3},
            "counterexamples": [],
        }


class TestP1:
    @pytest.mark.parametrize("name", ["I2(4)", "I2(9)", "A2", "H3"])
    def test_passes(self, stores, name):
        report = check_p1(stores(name))
        assert report.passed
        assert report.counters["max_coeff"] >= 1

    def test_a2_polynomials_trivial(self, stores):
        report = check_p1(stores("A2"))
        assert report.counters["distinct"] == 1  # only the constant 1
        assert report.counters["max_coeff"] == 1


class TestP2:
    @pytest.mark.parametrize("name", ["I2(5)", "I2(8)", "A2", "B3"])
    def test_passes(self, stores, name):
        report = check_p2(stores(name))
        assert report.passed

    def test_a2_w0_column_all_ones(self, stores):
        store = stores("A2")
        g = store.g
        assert all(p.coeffs == (1,) for p in store.kl_polynomials(range(g.size), g.w0))


class TestP3:
    def test_identity_column_max_one(self, wgraphs):
        report = check_p3(wgraphs("B2"), y_range=[0])
        assert report.passed
        assert report.counters["max_coeff"] == 1
        assert report.counters["triples"] == wgraphs("B2").g.size

    def test_i2_9_coefficients_in_one_two(self, wgraphs):
        wg = wgraphs("I2(9)")
        report = check_p3(wg)
        assert report.passed
        coeffs = set()
        for y in range(wg.g.size):
            col = column(wg, y)
            for u in col.store:
                coeffs.update(c for c in col.store.poly(u).half if c)
        assert coeffs == {1, 2}

    def test_a2_max_coeff_two(self, wgraphs):
        assert check_p3(wgraphs("A2")).counters["max_coeff"] == 2


class TestUnimodal:
    def test_column_pass(self, wgraphs):
        wg = wgraphs("I2(9)")
        y = wg.g.size - 1
        report = check_p3(wg, [y])
        assert report.passed

    def test_symmetric_half_to_q_coefficients(self):
        h = SymLaurentPoly(3, (1, 2))
        assert qpoly_from_sym(h).coeffs == (1, 2, 2, 1)


class TestW0Identity:
    def test_scalar_examples(self, stores, wgraphs):
        store = stores("A2")
        g = store.g
        col = column(wgraphs("A2"), g.w0)
        assert col.row_polys(0).get(g.w0) == SymLaurentPoly.one()
        s = 1  # id of the first generator
        assert col.row_polys(s).get(g.w0) == SymLaurentPoly(1, (1,))

    @pytest.mark.parametrize("name", ["A2", "I2(6)", "B2"])
    def test_passes(self, stores, wgraphs, name):
        report = check_w0_identity(stores(name), wgraphs(name))
        assert report.passed
        assert report.counters["unimodal_failures"] == 0

    def test_dihedral_w0_scalar_is_shifted_poincare(self, stores, wgraphs):
        m = 7
        store = stores(f"I2({m})")
        g = store.g
        col = column(wgraphs(f"I2({m})"), g.w0)
        h = col.row_polys(g.w0)[g.w0]
        # sum over the group of v^(2 l(z) - m)
        expected = LaurentPoly()
        for z in range(g.size):
            expected = expected + LaurentPoly({2 * g.lengths[z] - m: 1})
        assert h.expand() == expected


class TestStrategyInvariance:
    def test_a2(self, wgraphs):
        assert check_strategy_invariance(wgraphs("A2")).passed

    def test_i2_7(self, wgraphs):
        report = check_strategy_invariance(wgraphs("I2(7)"))
        assert report.passed
        assert report.counters["triples"] > 0

    def test_every_strategy_is_held_to_the_default(self, wgraphs):
        """A planted mu makes the rows depend on the descent, and the check
        names each strategy that departs from the default."""
        report = check_strategy_invariance(negated_edge(wgraphs("B3")))
        assert not report.passed
        text = " ".join(report.counterexamples)
        assert "fewest=" in text and ("first=" in text or "last=" in text)


def negated_edge(wg):
    """wg with one mu negated, on the first edge (z, y) with L(z) not
    inside L(y), which the column recursion reads."""
    g = wg.g
    z0, y0, _ = next(e for e in wg.edges() if g.lmask[e[0]] & ~g.lmask[e[1]])
    return planted_wgraph(wg, lambda z, y, mu: -mu if (z, y) == (z0, y0) else mu)


class FlaggingStore(PolyStore):
    """A store whose scan figures call v + v^-1 negative and 2 not
    unimodal: failures in every column of a real W-graph."""

    FLAGGED = {SymLaurentPoly(1, (1,)): "negative", SymLaurentPoly(0, (2,)): "unimodal"}

    def settle(self):
        new = [u for u, _, _ in self._pending]
        super().settle()
        for u in new:
            flag = self.FLAGGED.get(self.poly(u))
            if flag == "negative":
                self.negative.append(u)
            elif flag == "unimodal":
                self.not_unimodal.append(u)


class TestFailureLines:
    def test_independent_of_the_descent(self, wgraphs, monkeypatch):
        """Every strategy reports the same failures, in (x, z) order,
        though the strategies fill their rows in different orders."""
        wg = wgraphs("H3")
        monkeypatch.setattr(hecke, "PolyStore", FlaggingStore)
        orders_differ, flagged = False, 0
        for y in range(1, wg.g.size, 7):
            reports, orders = [], []
            for strategy in DESCENT_STRATEGIES:
                col = column(wg, y, strategy)
                info = column_summary(col)
                reports.append((info["bad_negative"], info["bad_unimodal"]))
                orders.append([(x, z) for x, row in enumerate(col.rows) for z in row
                               if col.store.poly(row[z]) in FlaggingStore.FLAGGED])
            assert all(r == reports[0] for r in reports), y
            for bad in reports[0]:
                flagged += len(bad)
                assert bad == sorted(bad)
            orders_differ |= any(o != orders[0] for o in orders)
        assert flagged and orders_differ

    def test_lines_of_check_p3(self, wgraphs, monkeypatch):
        """check_p3 reports a column's failures as failure_lines gives
        them, the sweep's error-log lines: each negative entry, then each
        entry that is not unimodal."""
        monkeypatch.setattr(hecke, "PolyStore", FlaggingStore)
        wg = wgraphs("H3")
        y = 4
        info = column_summary(column(wg, y))
        assert info["bad_negative"] and info["bad_unimodal"]
        lines = failure_lines(info)
        assert lines == [
            f"h({x},{y},{z}) = {p} has a negative coefficient" for x, z, p in info["bad_negative"]
        ] + [f"h({x},{y},{z}) = {p} is not unimodal" for x, z, p in info["bad_unimodal"]]
        report = check_p3(wg, [y])
        assert report.counterexamples == lines[:20]

    def test_sorted_under_a_planted_negative_mu(self, wgraphs):
        """One negated mu in the H3 W-graph, built as in
        test_rows_follow_the_recursion_for_any_mu: real negative values,
        which then depend on the descent, each list in (x, z) order."""
        base = wgraphs("H3")
        wg = negated_edge(base)
        found = 0
        for strategy in DESCENT_STRATEGIES:
            for y in range(0, base.size, 5):
                info = column_summary(column(wg, y, strategy))
                for bad in (info["bad_negative"], info["bad_unimodal"]):
                    found += len(bad)
                    assert bad == sorted(bad), (strategy, y)
        assert found


def test_transpose_sweep_same_global_max(wgraphs):
    """Aggregate h-symmetry: sweeping columns of y or of the transposed
    triples gives the same global maximum coefficient."""
    wg = wgraphs("I2(7)")
    direct = check_p3(wg).counters["max_coeff"]
    g = wg.g
    best = 0
    for x in range(g.size):
        col = column(wg, g.inv[x])
        best = max(best, column_summary(col)["max_coeff"])
    assert direct == best
