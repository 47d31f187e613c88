"""Class-based cross-modal retrieval evaluation, baselines, and the
training and scoring of experiment variants.

Relevance is class membership; every test item queries the full test split of
the other modality, ranked by cosine similarity (ties broken by ascending
gallery index).

AP needs only the ranks of a query's relevant items, and each rank is a
count: rank(j) = 1 + #scores above s_j + #scores equal to s_j at a lower
gallery index. Each row is sorted once by value; a binary search gives the
count above, and only a score the sorted row holds twice is counted again,
exactly, on the raw row. The counting assumes finite scores.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import cca_linear, diffcore as dc
from .diffcore import NumericError
from .model import embed_arrays
from .trainer import train


@dataclass(frozen=True)
class RetrievalReport:
    map_a2v: float
    map_v2a: float
    map_avg: float
    ap_a2v: np.ndarray
    ap_v2a: np.ndarray

    @property
    def gap(self):
        return abs(self.map_a2v - self.map_v2a)


# queries from which ``cross_modal_map`` ranks its two directions on two
# threads. On 2 vCPUs, with OpenBLAS's worker still spinning after the
# similarity product, two threads lost at 1000 queries, broke even at
# 1400-1800 and won 10-20 % from 2000
PARALLEL_QUERIES = 1500


def _direction_aps(sims, query_labels, gallery_labels):
    """(AP per query, whether the query has a relevant gallery item) of one
    direction; calls only numpy, so it may run on a pool thread."""
    g = sims.shape[1]
    aps = np.zeros(sims.shape[0])
    scored = np.zeros(sims.shape[0], dtype=bool)
    for label in np.unique(query_labels):
        rows = np.flatnonzero(query_labels == label)
        rel = np.flatnonzero(gallery_labels == label)
        if rel.size == 0:
            continue
        # one contiguous copy of the label's query rows serves the sort, the
        # relevant block and the tie counts: sims may be a transposed view
        sub = np.ascontiguousarray(sims[rows])
        ordered = np.sort(sub, axis=1)
        block = sub[:, rel]
        # binary searches run about twice as fast on ascending keys
        perm = np.argsort(block, axis=1)
        block = np.take_along_axis(block, perm, axis=1)
        right = np.empty(block.shape, dtype=np.int64)
        for r in range(rows.size):
            right[r] = np.searchsorted(ordered[r], block[r], side="right")
        ranks = g + 1 - right
        # a score is shared only if its sorted row also holds it just below;
        # at right == 1 the flat index reaches the previous row, masked out
        shared = (right >= 2) & (ordered.take(np.arange(rows.size)[:, None] * g + right - 2) == block)
        for r, k in zip(*np.nonzero(shared)):
            ranks[r, k] += np.count_nonzero(sub[r, :rel[perm[r, k]]] == block[r, k])
        ranks.sort(axis=1)
        # a row-wise mean sums each row in the same pairwise order as a 1-D mean
        aps[rows] = (np.arange(1, rel.size + 1) / ranks).mean(axis=1)
        scored[rows] = True
    return aps, scored


def _scored_aps(aps, scored):
    """The APs of the scored queries, in ascending query order; each query
    left out is warned about."""
    for i in np.flatnonzero(~scored):
        warnings.warn(f"query {i}: no relevant gallery items, excluded")
    return aps[scored]


def cross_modal_map(z_a, z_v, labels):
    """mAP in both directions on unit-normalized embeddings. Non-finite
    similarities raise NumericError.

    a2v ranks the rows of one similarity matrix and v2a those of its
    transpose. With at least ``PARALLEL_QUERIES`` queries and more than one
    CPU, v2a is ranked on a pool thread while the calling thread ranks a2v;
    either way every AP has the same bits, and the warnings about queries
    with no relevant item come from the calling thread, a2v's first."""
    z_a = np.asarray(z_a, dtype=np.float64)
    z_v = np.asarray(z_v, dtype=np.float64)
    labels = np.asarray(labels)
    if not (z_a.shape[0] == z_v.shape[0] == labels.shape[0]):
        raise ValueError("cross_modal_map: inconsistent sample counts")
    sims = z_a @ z_v.T
    if not np.isfinite(sims).all():
        raise NumericError("cross_modal_map: non-finite similarity scores")
    calls = [partial(_direction_aps, s, labels, labels) for s in (sims, sims.T)]
    if labels.shape[0] >= PARALLEL_QUERIES and dc._WORKERS > 1:
        ranked = dc._concurrently(calls)
    else:
        ranked = [call() for call in calls]
    ap_a2v, ap_v2a = (_scored_aps(*r) for r in ranked)
    map_a2v = float(ap_a2v.mean())
    map_v2a = float(ap_v2a.mean())
    return RetrievalReport(map_a2v=map_a2v, map_v2a=map_v2a,
                           map_avg=(map_a2v + map_v2a) / 2.0,
                           ap_a2v=ap_a2v, ap_v2a=ap_v2a)


def retrieval_embeddings(mp, cca_model, audio, visual):
    """Clean eval-mode embeddings, optionally through the appended linear CCA,
    rows L2-normalized for cosine retrieval."""
    za, zv = embed_arrays(mp, audio, visual)
    if cca_model is not None:
        za, zv = cca_linear.transform(cca_model, za, zv)
    return tuple(dc.l2_normalize_rows(dc.const(z)).value for z in (za, zv))


def evaluate_model(mp, cca_model, test_set):
    za, zv = retrieval_embeddings(mp, cca_model, test_set.audio, test_set.visual)
    return cross_modal_map(za, zv, test_set.labels)


BASELINES = ("random", "cca", "infonce-single")


def run_baseline(name, train_set, test_set, cfg):
    """Table-style reference systems.

    random: fixed-seed random unit embeddings. cca: linear CCA fitted on the
    raw training features (p = cfg.cca_post_dim). infonce-single: the same
    architecture trained with only the single-positive symmetric contrastive
    loss (k = 1: each anchor's whole weight on its pair; no masking), scored
    on its raw projections.
    """
    if test_set.labels is None:
        raise ValueError("run_baseline: labeled test split required")
    if name == "infonce-single":
        bcfg = replace(cfg, use_rec=False, use_cca=False, use_dis=False, use_infonce=True,
                       k=1, mask_ratio=0.0)
        result = train(train_set.unlabeled(), bcfg)
        za, zv = retrieval_embeddings(result.params, None, test_set.audio, test_set.visual)
        return cross_modal_map(za, zv, test_set.labels)
    if name == "random":
        rng = np.random.default_rng(cfg.seed)
        raw = [rng.normal(size=(test_set.n, cfg.model.proj_dim)) for _ in range(2)]
    elif name == "cca":
        p = min(cfg.cca_post_dim, train_set.audio.shape[1], train_set.visual.shape[1])
        model = cca_linear.fit(train_set.audio, train_set.visual, p=p, eps=cfg.cca_eps)
        raw = cca_linear.transform(model, test_set.audio, test_set.visual)
    else:
        raise ValueError(f"unknown baseline {name!r}; options: {', '.join(BASELINES)}")
    za, zv = (dc.l2_normalize_rows(dc.const(z)).value for z in raw)
    return cross_modal_map(za, zv, test_set.labels)


def score_variants(train_set, test_set, variants):
    """One full training per TrainConfig of ``variants`` on the unlabeled
    ``train_set``, each scored on ``test_set`` through its appended CCA; the
    RetrievalReports in the order of ``variants``."""
    reports = []
    for cfg in variants:
        result = train(train_set.unlabeled(), cfg)
        reports.append(evaluate_model(result.params, result.cca_model, test_set))
    return reports


RANK_LIST_TOP = 10  # gallery items per query in a rank list


def rank_list_rows(z_a, z_v, labels):
    """Per-query audio-to-visual top-RANK_LIST_TOP rank lists as CSV rows
    (query id, ranked gallery ids, relevance bits)."""
    sims = z_a @ z_v.T
    labels = np.asarray(labels)
    rows = ["query,rank,gallery,relevant"]
    # descending similarity; the stable sort keeps ties in gallery order
    orders = np.argsort(-sims, axis=1, kind="stable")[:, :RANK_LIST_TOP]
    for i, order in enumerate(orders):
        for rank, j in enumerate(order, start=1):
            rows.append(f"{i},{rank},{j},{int(labels[j] == labels[i])}")
    return rows


def report_rows(reports, label="name"):
    """Table-style CSV rows for (label cells, RetrievalReport) pairs, under
    the header ``label`` followed by the four report columns."""
    rows = [f"{label},map_a2v,map_v2a,map_avg,gap"]
    for cells, rep in reports:
        rows.append(f"{cells},{rep.map_a2v!r},{rep.map_v2a!r},{rep.map_avg!r},{rep.gap!r}")
    return rows
