"""Section 6.2 subgraph extraction, oracle-checked (Table 5 machinery)."""
import duckdb
import pandas as pd
import pytest

from repro.core.graph import SINK, SOURCE, TemporalGraph
from repro.oracle import assert_equivalent
from repro.spark.subgraphs import (
    cycle_paths,
    extract_seed_subgraphs,
    extraction_report,
    seed_edge_sets,
    subgraph_stats,
)

EDGES_SQL = "(select distinct src as u, dst as v from i)"

# DESIGN.md §1.4 as SQL: the union of the seeds' ≤3-hop cycle-path edges
# (``path_edges``), each endpoint tagged with its minimal hop position
# over the seed's paths (seed as tail 0, seed as head 9).
MIN_HOP_CTES = f"""
with p2 as (
  select e1.u a, e1.v b from {EDGES_SQL} e1 join {EDGES_SQL} e2
    on e1.v = e2.u and e2.v = e1.u
), p3 as (
  select e1.u a, e1.v b, e2.v c from {EDGES_SQL} e1
    join {EDGES_SQL} e2 on e1.v = e2.u
    join {EDGES_SQL} e3 on e2.v = e3.u and e3.v = e1.u
  where e2.v != e1.u and e1.v != e2.v
), path_edges as (
  select a seed, a u, b v from p2 union select a, b, a from p2
  union select a, a, b from p3 union select a, b, c from p3
  union select a, c, a from p3
), pos as (
  select seed, w, min(p) pos from (
    select a seed, b w, 1 p from p2 union all
    select a, b, 1 from p3 union all
    select a, c, 2 from p3
  ) group by seed, w
), positioned as (
  select e.seed, e.u, e.v,
         case when e.u = e.seed then 0 else pu.pos end pu,
         case when e.v = e.seed then 9 else pv.pos end pv
  from path_edges e
  left join pos pu on pu.seed = e.seed and pu.w = e.u
  left join pos pv on pv.seed = e.seed and pv.w = e.v
)
"""
SEED_EDGES_SQL = MIN_HOP_CTES + "select seed, u, v from positioned where pu < pv"


def tiny_network(spark):
    """Seeds 1, 2, 3, all edges between them: each seed's paths put both
    other vertices at hop 1, so the two edges between them are cut."""
    rows = [(u, v, 10 * u + v, 1.0) for u in (1, 2, 3) for v in (1, 2, 3) if u != v]
    return spark.createDataFrame(rows, "src long, dst long, ts long, qty double")


def ran_stages(sc, group: str) -> int:
    """Stages a job group ran (not those skipped for reused shuffles)."""
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    tracker = sc.statusTracker()
    stage_ids = {
        sid
        for j in tracker.getJobIdsForGroup(group)
        if (info := tracker.getJobInfo(j)) is not None
        for sid in info.stageIds
    }
    return sum(
        1
        for sid in stage_ids
        if (st := tracker.getStageInfo(sid)) is not None
        and st.numCompletedTasks + st.numFailedTasks > 0
    )


class TestCyclePaths:
    def test_2hop_matches_oracle(self, interactions, interactions_pdf):
        assert_equivalent(
            cycle_paths(interactions, 2),
            f"""
            select e1.u as a, e1.v as b
            from {EDGES_SQL} e1 join {EDGES_SQL} e2
              on e1.v = e2.u and e2.v = e1.u
            """,
            i=interactions_pdf,
        )

    def test_3hop_matches_oracle(self, interactions, interactions_pdf):
        assert_equivalent(
            cycle_paths(interactions, 3),
            f"""
            select e1.u as a, e1.v as b, e2.v as c
            from {EDGES_SQL} e1
            join {EDGES_SQL} e2 on e1.v = e2.u
            join {EDGES_SQL} e3 on e2.v = e3.u and e3.v = e1.u
            where e2.v != e1.u and e1.v != e2.v
            """,
            i=interactions_pdf,
        )

    def test_bad_hops_raises(self, interactions):
        with pytest.raises(ValueError):
            cycle_paths(interactions, 4)

    def test_no_self_cycles(self, interactions):
        pdf = cycle_paths(interactions, 3).toPandas()
        assert (pdf["a"] != pdf["b"]).all()
        assert (pdf["b"] != pdf["c"]).all()
        assert (pdf["a"] != pdf["c"]).all()


class TestSeedEdgeSets:
    @pytest.mark.parametrize("prefix", ["", "tie_"], ids=["base", "ties"])
    def test_matches_min_hop_oracle(self, request, prefix):
        assert_equivalent(
            seed_edge_sets(request.getfixturevalue(f"{prefix}interactions")),
            SEED_EDGES_SQL,
            i=request.getfixturevalue(f"{prefix}interactions_pdf"),
        )

    def test_same_hop_edges_cut(self, spark):
        pdf = seed_edge_sets(tiny_network(spark)).toPandas()
        got = sorted(map(tuple, pdf[["seed", "u", "v"]].values.tolist()))
        assert got == sorted(
            (s, u, v) for s in (1, 2, 3) for u in (1, 2, 3) for v in (1, 2, 3)
            if u != v and s in (u, v)
        )

    def test_every_seed_subgraph_is_a_dag(self, interactions):
        pdf = seed_edge_sets(interactions).toPandas()
        for seed, grp in pdf.groupby("seed"):
            rows = [
                (SOURCE if u == seed else u, SINK if v == seed else v, 0, 1.0)
                for u, v in zip(grp["u"], grp["v"])
            ]
            g = TemporalGraph.from_interactions(rows, source=SOURCE, sink=SINK)
            assert g.is_dag(), f"seed {seed} produced a cyclic subgraph"

    def test_seed_has_out_and_in_edges(self, interactions):
        pdf = seed_edge_sets(interactions).toPandas()
        for seed, grp in pdf.groupby("seed"):
            assert (grp["u"] == seed).any()
            assert (grp["v"] == seed).any()

    def test_seeds_are_cycle_origins(self, interactions, interactions_pdf):
        seeds = set(seed_edge_sets(interactions).toPandas()["seed"])
        con = duckdb.connect()
        con.register("i", interactions_pdf)
        expected = con.execute(
            f"""
            select distinct a from (
              select e1.u a from {EDGES_SQL} e1 join {EDGES_SQL} e2
                on e1.v=e2.u and e2.v=e1.u
              union
              select e1.u a from {EDGES_SQL} e1
                join {EDGES_SQL} e2 on e1.v=e2.u
                join {EDGES_SQL} e3 on e2.v=e3.u and e3.v=e1.u
                where e2.v != e1.u and e1.v != e2.v
            )
            """
        ).fetchdf()
        con.close()
        assert seeds == set(expected["a"])


class TestExtraction:
    def test_seed_relabelled_to_source_sink(self, subgraphs):
        pdf = subgraphs.toPandas()
        for seed, grp in pdf.groupby("seed"):
            assert seed not in set(grp["src"]) | set(grp["dst"])
            assert (grp["src"] == SOURCE).any()
            assert (grp["dst"] == SINK).any()

    def test_interaction_cap_enforced(self, interactions):
        capped = extract_seed_subgraphs(interactions, max_interactions=50)
        counts = capped.groupBy("seed").count().toPandas()
        assert (counts["count"] <= 50).all()

    def test_max_seeds_cap(self, interactions):
        few = extract_seed_subgraphs(interactions, max_interactions=400, max_seeds=5)
        assert few.select("seed").distinct().count() <= 5

    def test_interactions_come_from_network(self, subgraphs, interactions_pdf):
        pdf = subgraphs.toPandas()
        net = {
            (r.src, r.dst, r.ts): r.qty for r in interactions_pdf.itertuples()
        }
        for seed, grp in pdf.groupby("seed"):
            for src, dst, ts, qty in zip(grp["src"], grp["dst"], grp["ts"], grp["qty"]):
                u = seed if src == SOURCE else src
                v = seed if dst == SINK else dst
                assert net[(u, v, ts)] == pytest.approx(qty)


class TestExtractionReport:
    def test_matches_oracle(self, interactions, interactions_pdf):
        cap = 50
        assert_equivalent(
            extraction_report(interactions, max_interactions=cap),
            MIN_HOP_CTES
            + f"""
            , per_seed as (
              select e.seed, count(*) n_i
              from positioned e join i on e.u = i.src and e.v = i.dst
              where e.pu < e.pv
              group by e.seed
            )
            select (select count(*) from per_seed) n_seeds,
                   (select count(*) from per_seed where n_i > {cap}) n_seeds_over_cap,
                   (select count(*) from positioned where pu >= pv) n_back_edges
            """,
            i=interactions_pdf,
        )

    def test_counts_same_hop_edges(self, spark):
        row = extraction_report(tiny_network(spark), max_interactions=3).collect()[0]
        assert row.asDict() == {"n_seeds": 3, "n_seeds_over_cap": 3, "n_back_edges": 6}


class TestPlanSize:
    def test_extraction_stage_count(self, spark, interactions):
        sc = spark.sparkContext
        group = "extract_seed_subgraphs"
        sc.setJobGroup(group, group)
        try:
            extract_seed_subgraphs(interactions).count()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        # Stages run on the session network, 64 shuffle partitions: 126
        # when the 2- and 3-hop cycle joins were planned once per union
        # branch and pos was joined in twice; 15 with each cycle family
        # planned once and pos taken by windows. Twice 15 still catches a
        # return of the re-planned joins.
        assert ran_stages(sc, group) <= 30


class TestSubgraphStats:
    def test_matches_oracle_on_collected_results(self, subgraphs):
        pdf = subgraphs.toPandas()
        per_seed = (
            pdf.assign(edge=list(zip(pdf["src"], pdf["dst"])))
            .groupby("seed")
            .agg(
                n_vertices=("src", lambda s: 0),  # placeholder, fixed below
                n_edges=("edge", "nunique"),
                n_interactions=("edge", "size"),
            )
        )
        per_seed["n_vertices"] = [
            len(set(grp["src"]) | set(grp["dst"]))
            for _, grp in pdf.groupby("seed")
        ]
        expect = pd.DataFrame(
            [
                {
                    "n_subgraphs": len(per_seed),
                    "avg_vertices": per_seed["n_vertices"].mean(),
                    "avg_edges": per_seed["n_edges"].mean(),
                    "avg_interactions": float(per_seed["n_interactions"].mean()),
                }
            ]
        )
        got = subgraph_stats(subgraphs).toPandas()
        pd.testing.assert_frame_equal(
            got.astype(float), expect.astype(float), check_exact=False, rtol=1e-9
        )

    def test_stats_row_sane(self, subgraphs):
        row = subgraph_stats(subgraphs).collect()[0]
        assert row["n_subgraphs"] > 0
        assert row["avg_vertices"] >= 3.0
        assert row["avg_edges"] >= 2.0
        assert row["avg_interactions"] >= row["avg_edges"]
