import json

import pytest

from klbasis.checks import (
    CheckReport,
    check_p1,
    check_p2,
    check_p3,
    check_strategy_invariance,
    check_unimodal,
    check_w0_identity,
    column_summary,
)
from klbasis.hecke import column
from klbasis.klbase import KLStore
from klbasis.ring import LaurentPoly, SymLaurentPoly, qpoly_from_sym


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
        for x in range(g.size):
            assert store.kl_polynomial(x, g.w0).coeffs == (1,)


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
            for h in col.distinct_handles():
                coeffs.update(c for c in col.store.poly(h).half if c)
        assert coeffs == {1, 2}

    def test_progress_records(self, wgraphs):
        seen = []
        check_p3(wgraphs("A2"), progress=seen.append)
        assert [r["y"] for r in seen] == list(range(6))
        assert all(r["cumulative_max"] >= r["max_coeff"] for r in seen)
        assert seen[-1]["cumulative_max"] == 2


class TestUnimodal:
    def test_column_pass(self, wgraphs):
        wg = wgraphs("I2(9)")
        y = wg.g.size - 1
        report = check_unimodal(column(wg, y))
        assert report.passed

    def test_symmetric_half_to_q_coefficients(self):
        h = SymLaurentPoly(3, (1, 2))
        assert qpoly_from_sym(h).coeffs == (1, 2, 2, 1)


class TestW0Identity:
    def test_scalar_examples(self, stores, wgraphs):
        store = stores("A2")
        g = store.g
        col = column(wgraphs("A2"), g.w0)
        assert col.h_value(0, g.w0) == SymLaurentPoly.one()
        s = 1  # id of the first generator
        assert col.h_value(s, g.w0) == SymLaurentPoly(1, (1,))

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
        h = col.h_value(g.w0, g.w0)
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
