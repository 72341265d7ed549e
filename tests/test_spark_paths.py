"""L2/L3/C2 path precomputation (Section 5.2), oracle-checked."""
import pytest

from repro.core.graph import SINK, SOURCE, TemporalGraph
from repro.core.greedy import greedy_sink_deliveries

EDGES_SQL = "(select distinct src as u, dst as v from i)"
#: Fixture-name prefix of the network a test runs on (see conftest.py).
NETWORKS = [pytest.param("", id="base"), pytest.param("tie_", id="ties")]


def local_chain_deliveries(interactions_pdf, edge_seq):
    """Reference: greedy deliveries for the path given by ``edge_seq``."""
    rows = []
    for hop, (u, v) in enumerate(edge_seq):
        sub = interactions_pdf[
            (interactions_pdf["src"] == u) & (interactions_pdf["dst"] == v)
        ]
        a = SOURCE if hop == 0 else hop
        b = SINK if hop == len(edge_seq) - 1 else hop + 1
        rows += [(a, b, t, q) for t, q in zip(sub["ts"], sub["qty"])]
    g = TemporalGraph.from_interactions(rows, source=SOURCE, sink=SINK)
    return greedy_sink_deliveries(g)


class TestL2:
    def test_path_set_matches_oracle(self, l2, interactions_pdf):
        # Structural check (flows verified against the local reference in
        # test_flows_match_local_greedy below).
        got = set(map(tuple, l2.select("a", "b").toPandas().values))
        import duckdb

        con = duckdb.connect()
        con.register("i", interactions_pdf)
        exp = con.execute(
            f"select e1.u, e1.v from {EDGES_SQL} e1 join {EDGES_SQL} e2 "
            "on e1.v=e2.u and e2.v=e1.u"
        ).fetchall()
        con.close()
        assert got == set(exp)

    @pytest.mark.parametrize("net", NETWORKS)
    def test_flows_match_local_greedy(self, net, request):
        l2 = request.getfixturevalue(net + "l2")
        interactions_pdf = request.getfixturevalue(net + "interactions_pdf")
        pdf = l2.toPandas()
        for a, b, flow, deliveries in zip(pdf["a"], pdf["b"], pdf["flow"], pdf["deliveries"]):
            expect = local_chain_deliveries(interactions_pdf, [(a, b), (b, a)])
            assert flow == pytest.approx(sum(q for _, q in expect))
            got = [(d["ts"], d["qty"]) for d in deliveries]
            assert got == pytest.approx(expect)

    def test_flow_equals_delivery_sum(self, l2):
        pdf = l2.toPandas()
        for flow, deliveries in zip(pdf["flow"], pdf["deliveries"]):
            assert flow == pytest.approx(sum(d["qty"] for d in deliveries))


class TestL3:
    @pytest.mark.parametrize("net", NETWORKS)
    def test_flows_match_local_greedy(self, net, request):
        l3 = request.getfixturevalue(net + "l3")
        interactions_pdf = request.getfixturevalue(net + "interactions_pdf")
        pdf = l3.toPandas().head(60)
        for a, b, c, flow in zip(pdf["a"], pdf["b"], pdf["c"], pdf["flow"]):
            expect = local_chain_deliveries(
                interactions_pdf, [(a, b), (b, c), (c, a)]
            )
            assert flow == pytest.approx(sum(q for _, q in expect)), (a, b, c)

    def test_vertices_distinct(self, l3):
        pdf = l3.toPandas()
        assert ((pdf["a"] != pdf["b"]) & (pdf["b"] != pdf["c"]) & (pdf["a"] != pdf["c"])).all()


class TestC2:
    def test_chain_set_matches_oracle(self, c2, interactions_pdf):
        import duckdb

        con = duckdb.connect()
        con.register("i", interactions_pdf)
        exp = con.execute(
            f"select e1.u, e1.v, e2.v from {EDGES_SQL} e1 "
            f"join {EDGES_SQL} e2 on e1.v=e2.u where e2.v != e1.u"
        ).fetchall()
        con.close()
        got = set(map(tuple, c2.select("a", "b", "c").toPandas().values))
        assert got == set(exp)

    @pytest.mark.parametrize("net", NETWORKS)
    def test_flows_match_local_greedy(self, net, request):
        c2 = request.getfixturevalue(net + "c2")
        interactions_pdf = request.getfixturevalue(net + "interactions_pdf")
        pdf = c2.toPandas().head(60)
        for a, b, c, flow in zip(pdf["a"], pdf["b"], pdf["c"], pdf["flow"]):
            expect = local_chain_deliveries(interactions_pdf, [(a, b), (b, c)])
            assert flow == pytest.approx(sum(q for _, q in expect)), (a, b, c)

    def test_deliveries_sorted_by_time(self, c2):
        pdf = c2.toPandas().head(100)
        for deliveries in pdf["deliveries"]:
            ts = [d["ts"] for d in deliveries]
            assert ts == sorted(ts)
