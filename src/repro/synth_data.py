"""Synthetic temporal interaction networks (the paper's datasets).

The paper evaluates on three real networks (Bitcoin transactions, CTU-13
botnet traffic, Prosper Loans) that are not available offline; the
profile-matched generators here are the documented substitutes
(DESIGN.md §1). Tests use SF=0.01, benchmarks SF~=0.1. Generators are
deterministic in ``seed`` so the DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

# ---------------------------------------------------------------------------
# Each profile fixes, at SF=1.0, a laptop-scale stand-in for the real
# network and scales node/interaction counts linearly in ``sf``:
#
# * zipfian out-/in-degree skew (``alpha``) — hubs, as in transaction graphs;
# * ``reciprocity`` — fraction of edges that get a reverse edge, which is
#   what creates the 2-hop cycles the paper's subgraphs/patterns are built
#   from;
# * ``closure`` — fraction of 2-paths closed into triangles (3-hop cycles);
# * heavy-tailed interactions-per-edge (zipf over edges), matching the
#   paper's observation that extracted subgraphs carry many interactions;
# * lognormal quantities with mean matched to the paper's "avg. flow"
#   column (34.4 BTC / 19.2 KB / $76).
# ---------------------------------------------------------------------------

_NETWORK_PROFILES = {
    # name: (n_nodes, n_edges, n_interactions at SF=1.0,
    #        zipf alpha, reciprocity, closure, qty_mean, ts_range)
    "bitcoin": (60_000, 140_000, 230_000, 1.25, 0.25, 0.15, 34.4, 1_000_000),
    "ctu13": (30_000, 35_000, 140_000, 1.15, 0.08, 0.03, 19.2, 1_000_000),
    "prosper": (4_500, 150_000, 152_000, 1.05, 0.10, 0.10, 76.0, 1_000_000),
}


def interaction_network(
    spark: SparkSession, *, profile: str = "bitcoin", sf: float = 0.1, seed: int = 7
) -> DataFrame:
    """A temporal interaction network ``(src, dst, ts, qty)`` (Definition 1).

    Deterministic in ``(profile, sf, seed)``. ``ts`` is an integer
    timestamp, ``qty`` a positive float quantity. Self-loops are removed;
    parallel interactions on an edge are the norm (edges are interaction
    *sequences*).
    """
    pdf = interaction_network_pdf(profile=profile, sf=sf, seed=seed)
    return spark.createDataFrame(pdf)


def interaction_network_pdf(
    *, profile: str = "bitcoin", sf: float = 0.1, seed: int = 7
) -> pd.DataFrame:
    """pandas twin of :func:`interaction_network` (also feeds the oracle)."""
    if profile not in _NETWORK_PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {sorted(_NETWORK_PROFILES)}")
    n_nodes, n_edges, n_inter, alpha, recip, closure, qty_mean, ts_range = _NETWORK_PROFILES[profile]
    n_nodes = max(10, int(n_nodes * sf))
    n_edges = max(20, int(n_edges * sf))
    n_inter = max(30, int(n_inter * sf))
    g = np.random.default_rng(seed)

    # Zipf-skewed endpoint sampling -> hubs and (after closure) cycles.
    ranks = np.arange(1, n_nodes + 1)
    w = 1.0 / ranks**alpha
    w /= w.sum()
    src = g.choice(ranks, size=int(n_edges * 1.3), p=w)
    dst = g.choice(ranks, size=int(n_edges * 1.3), p=w)
    keep = src != dst
    edges = np.unique(np.stack([src[keep], dst[keep]], axis=1), axis=0)

    # Reciprocity: reverse a deterministic subset of edges (2-hop cycles).
    n_rec = int(len(edges) * recip)
    rec = edges[g.choice(len(edges), size=n_rec, replace=False)][:, ::-1]
    # Triangle closure: for 2-paths (a->b, b->c) close c->a (3-hop cycles).
    eb = pd.DataFrame(edges, columns=["u", "v"])
    two_paths = eb.merge(eb, left_on="v", right_on="u", suffixes=("_1", "_2"))
    two_paths = two_paths[two_paths["u_1"] != two_paths["v_2"]]
    n_close = min(int(len(edges) * closure), len(two_paths))
    if n_close > 0:
        sel = two_paths.iloc[
            g.choice(len(two_paths), size=n_close, replace=False)
        ]
        closing = np.stack([sel["v_2"].to_numpy(), sel["u_1"].to_numpy()], axis=1)
    else:
        closing = np.empty((0, 2), dtype=edges.dtype)
    all_edges = np.unique(np.vstack([edges, rec, closing]), axis=0)

    # Heavy-tailed interaction counts per edge: zipf over a shuffled edge
    # order so hub edges are not automatically the busiest.
    order = g.permutation(len(all_edges))
    ew = 1.0 / np.arange(1, len(all_edges) + 1) ** 1.1
    ew /= ew.sum()
    eid = g.choice(order, size=n_inter, p=ew)
    qty = np.round(g.lognormal(mean=0.0, sigma=1.2, size=n_inter), 4)
    qty *= qty_mean / max(qty.mean(), 1e-9)  # match the paper's avg flow
    pdf = pd.DataFrame(
        {
            "src": all_edges[eid, 0].astype("int64"),
            "dst": all_edges[eid, 1].astype("int64"),
            "ts": g.integers(0, ts_range, size=n_inter).astype("int64"),
            "qty": np.round(qty, 4),
        }
    )
    # One interaction per (edge, ts): duplicate (src,dst,ts) rows would be
    # indistinguishable; keep the first deterministically.
    pdf = (
        pdf.drop_duplicates(subset=["src", "dst", "ts"])
        .sort_values(["src", "dst", "ts"])
        .reset_index(drop=True)
    )
    return pdf
