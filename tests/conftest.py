"""Shared Spark-side fixtures: one small cached network + derived tables.

Everything derives from the ctu13 profile at SF=0.01 (~1.4K
interactions) — sparse enough that cycle enumeration stays small but
rich enough to produce all three subgraph classes and instances of
every pattern. Session-scoped and cached so the Spark work happens
once per test run.

The ``tie_`` fixtures are the same network with timestamps bucketed by
``TIE_BUCKET``: about 20 distinct timestamps, so the same-timestamp rule
of DESIGN.md §2 is hit at the Spark level, not only in core tests.
"""
import pytest

from repro.synth_data import interaction_network, interaction_network_pdf

PROFILE, SF, SEED = "ctu13", 0.01, 7
TIE_BUCKET = 50_000


@pytest.fixture(scope="session")
def interactions(spark):
    df = interaction_network(spark, profile=PROFILE, sf=SF, seed=SEED).cache()
    df.count()
    return df


@pytest.fixture(scope="session")
def interactions_pdf():
    return interaction_network_pdf(profile=PROFILE, sf=SF, seed=SEED)


@pytest.fixture(scope="session")
def tie_interactions_pdf(interactions_pdf):
    return interactions_pdf.assign(ts=interactions_pdf["ts"] // TIE_BUCKET)


@pytest.fixture(scope="session")
def tie_interactions(spark, tie_interactions_pdf):
    df = spark.createDataFrame(tie_interactions_pdf).cache()
    df.count()
    return df


@pytest.fixture(scope="session")
def l2(interactions):
    from repro.spark.paths import l2_table

    df = l2_table(interactions).cache()
    df.count()
    return df


@pytest.fixture(scope="session")
def l3(interactions):
    from repro.spark.paths import l3_table

    df = l3_table(interactions).cache()
    df.count()
    return df


@pytest.fixture(scope="session")
def c2(interactions):
    from repro.spark.paths import c2_table

    df = c2_table(interactions).cache()
    df.count()
    return df


@pytest.fixture(scope="session")
def tie_l2(tie_interactions):
    from repro.spark.paths import l2_table

    df = l2_table(tie_interactions).cache()
    df.count()
    return df


@pytest.fixture(scope="session")
def tie_l3(tie_interactions):
    from repro.spark.paths import l3_table

    df = l3_table(tie_interactions).cache()
    df.count()
    return df


@pytest.fixture(scope="session")
def tie_c2(tie_interactions):
    from repro.spark.paths import c2_table

    df = c2_table(tie_interactions).cache()
    df.count()
    return df


@pytest.fixture(scope="session")
def subgraphs(interactions):
    from repro.spark.subgraphs import extract_seed_subgraphs

    df = extract_seed_subgraphs(interactions, max_interactions=400).cache()
    df.count()
    return df


@pytest.fixture(scope="session")
def flow_results(subgraphs):
    from repro.spark.flow_jobs import compute_flows

    df = compute_flows(subgraphs).cache()
    df.count()
    return df
