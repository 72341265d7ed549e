"""Distributed flow jobs: Spark results == local core results (Tables 5-8)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.graph import SINK, SOURCE, TemporalGraph
from repro.core.pipeline import run_all_methods
from repro.oracle import assert_equivalent
from repro.spark.flow_jobs import (
    compute_flows,
    interaction_bucket_table,
    runtime_table,
)
from repro.spark.subgraphs import extract_seed_subgraphs, subgraph_stats


class TestComputeFlows:
    def test_one_row_per_seed(self, subgraphs, flow_results):
        assert flow_results.count() == subgraphs.select("seed").distinct().count()

    def test_flows_match_local_reference(self, subgraphs, flow_results):
        sub = subgraphs.toPandas()
        got = flow_results.toPandas().set_index("seed")
        for seed, grp in sub.groupby("seed"):
            g = TemporalGraph.from_interactions(
                zip(grp["src"], grp["dst"], grp["ts"], grp["qty"]),
                source=SOURCE,
                sink=SINK,
            )
            expect = run_all_methods(g)
            row = got.loc[seed]
            assert row["cls"] == expect["cls"]
            for k in ("flow_greedy", "flow_lp", "flow_pre", "flow_presim"):
                assert row[k] == pytest.approx(expect[k], abs=1e-6), (seed, k)

    def test_methods_agree_distributed(self, flow_results):
        pdf = flow_results.toPandas()
        assert np.allclose(pdf["flow_lp"], pdf["flow_pre"])
        assert np.allclose(pdf["flow_pre"], pdf["flow_presim"])
        assert (pdf["flow_greedy"] <= pdf["flow_pre"] + 1e-6).all()

    def test_class_a_greedy_equals_max(self, flow_results):
        pdf = flow_results.toPandas()
        a = pdf[pdf["cls"] == "A"]
        assert len(a) > 0
        assert np.allclose(a["flow_greedy"], a["flow_pre"])

    def test_all_classes_present(self, flow_results):
        # The ctu13 test network produces all three classes.
        assert set(flow_results.toPandas()["cls"]) == {"A", "B", "C"}

    def test_sizes_recorded(self, subgraphs, flow_results):
        counts = subgraphs.groupBy("seed").count().toPandas().set_index("seed")
        got = flow_results.toPandas().set_index("seed")
        for seed in counts.index:
            assert got.loc[seed, "n_interactions"] == counts.loc[seed, "count"]

    def test_lp_cap_marks_skipped(self, subgraphs):
        res = compute_flows(subgraphs, lp_cap=10).toPandas()
        big = res[res["n_interactions"] > 10]
        assert big["flow_lp"].isna().all()
        assert big["flow_pre"].notna().all()


class TestTieFlows:
    """The flow job on subgraphs whose interactions share timestamps."""

    @pytest.fixture(scope="class")
    def tie_results(self, tie_subgraphs):
        return compute_flows(tie_subgraphs).toPandas()

    def test_subgraphs_have_ties(self, tie_subgraphs):
        pdf = tie_subgraphs.toPandas()
        assert pdf.duplicated(["seed", "ts"]).any()

    def test_methods_agree(self, tie_results):
        assert np.allclose(tie_results["flow_lp"], tie_results["flow_pre"])
        assert np.allclose(tie_results["flow_pre"], tie_results["flow_presim"])
        assert (tie_results["flow_greedy"] <= tie_results["flow_presim"] + 1e-6).all()

    def test_class_a_greedy_equals_max(self, tie_results):
        a = tie_results[tie_results["cls"] == "A"]
        assert len(a) > 0
        assert np.allclose(a["flow_greedy"], a["flow_presim"])


class TestEmptyNetwork:
    def test_no_subgraphs_no_error(self, spark):
        empty = spark.createDataFrame([], "src long, dst long, ts long, qty double")
        sub = extract_seed_subgraphs(empty)
        assert sub.count() == 0
        assert subgraph_stats(sub).collect()[0]["n_subgraphs"] == 0
        results = compute_flows(sub)
        assert results.count() == 0
        table = runtime_table(results).toPandas()
        assert list(table["cls"]) == ["All"]
        assert table["n_subgraphs"].tolist() == [0]


class TestRuntimeTable:
    def test_rows_all_plus_classes(self, flow_results):
        pdf = runtime_table(flow_results).toPandas()
        assert set(pdf["cls"]) == {"All", "A", "B", "C"}

    def test_counts_match_oracle(self, flow_results):
        assert_equivalent(
            runtime_table(flow_results),
            """
            select 'All' as cls, count(*) as n_subgraphs,
                   avg(ms_greedy) as greedy_ms, avg(ms_lp) as lp_ms,
                   avg(ms_pre) as pre_ms, avg(ms_presim) as presim_ms
            from r
            union all
            select cls, count(*), avg(ms_greedy), avg(ms_lp),
                   avg(ms_pre), avg(ms_presim)
            from r group by cls
            """,
            r=flow_results.toPandas(),
        )

    def test_greedy_fastest_on_average(self, flow_results):
        pdf = runtime_table(flow_results).toPandas()
        allrow = pdf[pdf["cls"] == "All"].iloc[0]
        assert allrow["greedy_ms"] <= allrow["lp_ms"]


class TestBucketTable:
    def test_buckets_cover_all_subgraphs(self, flow_results):
        pdf = interaction_bucket_table(flow_results).toPandas()
        assert pdf["n_subgraphs"].sum() == flow_results.count()

    def test_bucket_labels(self, flow_results):
        pdf = interaction_bucket_table(flow_results).toPandas()
        assert set(pdf["bucket"]) <= {"<100", "100-1000", ">1000"}
