"""Paper Tables 4–11, one benchmark case per table.

Tables 4–5 describe the synthetic datasets and the extracted seed
subgraphs; Tables 6–8 time the flow methods (``_flow_bench.py``) and
Tables 9–11 the GB vs PB pattern searches (``_pattern_bench.py``) on the
bitcoin, ctu13 and prosper profiles.
"""
import pytest

import table4_datasets
import table5_subgraphs
from _flow_bench import run_flow_table
from _pattern_bench import run_pattern_table
from common import BENCH_CAP, BENCH_SF, report


def table4_dataset_stats(spark, benchmark):
    rows = benchmark.pedantic(
        lambda: table4_datasets.run(spark, sf=BENCH_SF), rounds=1, iterations=1
    )
    report(f"\nTable 4 (synthetic stand-ins at SF={BENCH_SF}; paper in parens)")
    for r in rows:
        pn, pe, pi, pf = r["paper"]
        report(
            f"  {r['dataset']:10s} nodes={r['n_nodes']:>7d} edges={r['n_edges']:>7d} "
            f"inter={r['n_interactions']:>7d} avg_flow={r['avg_flow']:>8.2f}"
            f"   (paper: {pn}, {pe}, {pi}, {pf})"
        )
    assert len(rows) == 3
    for r in rows:
        # The quantity distribution is tuned to the paper's avg-flow column.
        assert abs(r["avg_flow"] - r["paper"][3]) / r["paper"][3] < 0.1


def table5_subgraph_stats(spark, benchmark):
    rows = benchmark.pedantic(
        lambda: table5_subgraphs.run(spark, sf=BENCH_SF, max_interactions=BENCH_CAP),
        rounds=1,
        iterations=1,
    )
    report(f"\nTable 5 (SF={BENCH_SF}, cap={BENCH_CAP}; paper in parens)")
    for r in rows:
        ps, pv, pe, pi = r["paper"]
        report(
            f"  {r['dataset']:10s} subgraphs={r['n_subgraphs']:>5d} "
            f"avg_vtx={r['avg_vertices']:>6.2f} avg_edges={r['avg_edges']:>6.2f} "
            f"avg_inter={r['avg_interactions']:>7.1f}"
            f"   (paper: {ps}, {pv}, {pe}, {pi})"
        )
    for r in rows:
        assert r["n_subgraphs"] > 0
        # Same qualitative ordering as the paper: subgraphs are small in
        # vertices/edges but carry many interactions.
        assert r["avg_interactions"] > r["avg_edges"]


def table11_patterns_prosper(spark, benchmark):
    # Prosper is the only dataset with a precomputed C2 chain table (per
    # the paper), so only its table has the chain patterns P1/RP1.
    rows = run_pattern_table(spark, benchmark, "prosper")
    names = [r["pattern"] for r in rows]
    assert "P1" in names and "RP1" in names


TABLES = {
    "table4_dataset_stats": table4_dataset_stats,
    "table5_subgraph_stats": table5_subgraph_stats,
    "table6_flow_bitcoin": lambda s, b: run_flow_table(s, b, "bitcoin"),
    "table7_flow_ctu13": lambda s, b: run_flow_table(s, b, "ctu13"),
    "table8_flow_prosper": lambda s, b: run_flow_table(s, b, "prosper"),
    "table9_patterns_bitcoin": lambda s, b: run_pattern_table(s, b, "bitcoin"),
    "table10_patterns_ctu13": lambda s, b: run_pattern_table(s, b, "ctu13"),
    "table11_patterns_prosper": table11_patterns_prosper,
}


@pytest.mark.parametrize("table", TABLES)
def test_table(spark, benchmark, table):
    TABLES[table](spark, benchmark)
