"""The spark-submit job entrypoints run end-to-end at tiny scale."""
import flow_tables
import pattern_tables
import pytest
import table4_datasets
import table5_subgraphs


class TestTable4Job:
    def test_rows_for_all_profiles(self, spark):
        rows = table4_datasets.run(spark, sf=0.01)
        assert [r["dataset"] for r in rows] == ["bitcoin", "ctu13", "prosper"]
        for r in rows:
            assert r["n_interactions"] > 0
            assert r["paper"] in table4_datasets.PAPER_TABLE4.values()

    def test_avg_flow_tracks_paper(self, spark):
        rows = table4_datasets.run(spark, sf=0.01)
        for r in rows:
            assert r["avg_flow"] == pytest.approx(r["paper"][3], rel=0.1)


class TestTable5Job:
    def test_stats_for_all_profiles(self, spark):
        rows = table5_subgraphs.run(spark, sf=0.01, max_interactions=400)
        assert len(rows) == 3
        for r in rows:
            assert r["n_subgraphs"] > 0
            assert r["avg_interactions"] > 0
            assert r["n_seeds"] - r["n_seeds_over_cap"] == r["n_subgraphs"]
            assert r["n_back_edges"] >= 0


class TestFlowTablesJob:
    def test_ctu13_table(self, spark):
        results, table = flow_tables.run(spark, "ctu13", sf=0.01, max_interactions=400)
        pdf = table.toPandas()
        assert "All" in set(pdf["cls"])
        # The printing helper must accept the frame without error.
        flow_tables.print_table("ctu13", pdf)

    def test_paper_reference_numbers_present(self):
        for t in flow_tables.PAPER_TABLES.values():
            assert set(t) == {"All", "A", "B", "C"}


class TestPatternTablesJob:
    def test_ctu13_rows(self, spark):
        rows = pattern_tables.run(spark, "ctu13", sf=0.01)
        names = [r["pattern"] for r in rows]
        assert names == pattern_tables.PATTERNS_BY_DATASET["ctu13"]
        pattern_tables.print_table("ctu13", rows)

    def test_dataset_pattern_lists_match_paper(self):
        # P1/RP1 only where a chain table exists (Prosper).
        assert "P1" not in pattern_tables.PATTERNS_BY_DATASET["bitcoin"]
        assert "P1" not in pattern_tables.PATTERNS_BY_DATASET["ctu13"]
        assert "P1" in pattern_tables.PATTERNS_BY_DATASET["prosper"]
