"""Table 5 — statistics of the extracted seed subgraphs per dataset.

Usage: ``spark-submit jobs/table5_subgraphs.py [sf] [max_interactions]``.
Below the table it prints what extraction dropped per dataset: seeds over
the interaction cap and edges cut by the min-hop DAG filter.
"""
import sys

from pyspark.sql import SparkSession

from repro.spark.subgraphs import extract_seed_subgraphs, extraction_report, subgraph_stats
from repro.synth_data import interaction_network

PAPER_TABLE5 = {
    "bitcoin": (48_700, 5.16, 6.42, 448.4),
    "ctu13": (9_235, 3.24, 2.49, 15.9),
    "prosper": (137, 6.1, 8.0, 611.5),
}


def run(spark: SparkSession, sf: float = 0.1, max_interactions: int = 800) -> list[dict]:
    """One row per dataset: the Table 5 statistics, then the
    ``extraction_report`` columns."""
    rows = []
    for profile in ("bitcoin", "ctu13", "prosper"):
        interactions = interaction_network(spark, profile=profile, sf=sf)
        sub = extract_seed_subgraphs(interactions, max_interactions=max_interactions)
        stats = subgraph_stats(sub).collect()[0]
        report = extraction_report(interactions, max_interactions).collect()[0]
        rows.append(
            {"dataset": profile, **stats.asDict(), **report.asDict(), "paper": PAPER_TABLE5[profile]}
        )
    return rows


def main() -> None:
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 0.1
    cap = int(sys.argv[2]) if len(sys.argv) > 2 else 800
    spark = SparkSession.builder.appName("table5").getOrCreate()
    print(f"Table 5 (SF={sf}, interaction cap={cap}; paper numbers in parens)")
    print(f"{'dataset':10s} {'#subgraphs':>10s} {'avg #vtx':>9s} {'avg #edges':>10s} {'avg #inter':>10s}")
    rows = run(spark, sf, cap)
    for r in rows:
        ps, pv, pe, pi = r["paper"]
        print(
            f"{r['dataset']:10s} {r['n_subgraphs']:>10d} {r['avg_vertices']:>9.2f} "
            f"{r['avg_edges']:>10.2f} {r['avg_interactions']:>10.1f}   "
            f"(paper: {ps}, {pv}, {pe}, {pi})"
        )
    print("\nDropped by extraction")
    print(f"{'dataset':10s} {'#seeds':>8s} {'over cap':>9s} {'cut edges':>10s}")
    for r in rows:
        print(
            f"{r['dataset']:10s} {r['n_seeds']:>8d} {r['n_seeds_over_cap']:>9d} "
            f"{r['n_back_edges']:>10d}"
        )
    spark.stop()


if __name__ == "__main__":
    main()
