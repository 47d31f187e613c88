"""Unit tests for the retrieval harness and reference systems."""

import threading
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hscmae.diffcore as dc
from hscmae import evaluate
from hscmae.data_io import FeatureSet
from hscmae.diffcore import NumericError
from hscmae.evaluate import (_direction_aps, _scored_aps, cross_modal_map, evaluate_model,
                             rank_list_rows, report_rows, retrieval_embeddings, run_baseline,
                             score_variants)
from hscmae.trainer import train

from conftest import desk_train_config
from reference_ops import average_precision


def rank_gallery(sim_row):
    # descending similarity, ties toward the lower gallery index
    return np.lexsort((np.arange(sim_row.size), -sim_row))


def loop_direction_aps(sims, query_labels, gallery_labels):
    """Reference: one full lexsort of the gallery per query."""
    aps = []
    for i in range(sims.shape[0]):
        bits = gallery_labels[rank_gallery(sims[i])] == query_labels[i]
        if not bits.any():
            warnings.warn(f"query {i}: no relevant gallery items, excluded")
            continue
        aps.append(average_precision(bits))
    return np.asarray(aps)


def recorded(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught]


def direction_aps(sims, query_labels, gallery_labels):
    """One direction's APs of the scored queries, with its warnings."""
    return _scored_aps(*_direction_aps(sims, query_labels, gallery_labels))


def assert_matches_loop(sims, query_labels, gallery_labels):
    got, got_warnings = recorded(direction_aps, sims, query_labels, gallery_labels)
    want, want_warnings = recorded(loop_direction_aps, sims, query_labels, gallery_labels)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got_warnings == want_warnings


def brute_force_map(za, zv, labels):
    """Literal per-query AP recomputation with explicit tie handling."""
    sims = za @ zv.T
    n = sims.shape[0]

    def direction(s):
        aps = []
        for i in range(n):
            order = sorted(range(n), key=lambda j: (-s[i, j], j))
            hits = 0
            precisions = []
            for rank, j in enumerate(order, start=1):
                if labels[j] == labels[i]:
                    hits += 1
                    precisions.append(hits / rank)
            aps.append(sum(precisions) / hits)
        return sum(aps) / n

    return direction(sims), direction(sims.T)


def unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_average_precision_hand_cases():
    assert average_precision([1, 0, 1]) == pytest.approx(5.0 / 6.0)
    assert average_precision([0, 1]) == pytest.approx(0.5)
    assert average_precision([1, 1, 1]) == pytest.approx(1.0)
    assert average_precision([0, 0, 1]) == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        average_precision([0, 0, 0])


def test_cross_modal_map_matches_brute_force():
    rng = np.random.default_rng(0)
    for n in (5, 17, 50):
        labels = rng.integers(0, 3, n)
        za = unit_rows(rng.normal(size=(n, 4)))
        zv = unit_rows(rng.normal(size=(n, 4)))
        report = cross_modal_map(za, zv, labels)
        a2v, v2a = brute_force_map(za, zv, labels)
        assert abs(report.map_a2v - a2v) <= 1e-12
        assert abs(report.map_v2a - v2a) <= 1e-12
        assert report.map_avg == pytest.approx((a2v + v2a) / 2.0, abs=1e-15)


def test_cross_modal_map_with_ties_matches_brute_force():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 2, 12)
    za = unit_rows(np.repeat(rng.normal(size=(4, 3)), 3, axis=0))  # duplicated rows force ties
    zv = unit_rows(np.repeat(rng.normal(size=(4, 3)), 3, axis=0))
    report = cross_modal_map(za, zv, labels)
    a2v, v2a = brute_force_map(za, zv, labels)
    assert abs(report.map_a2v - a2v) <= 1e-12
    assert abs(report.map_v2a - v2a) <= 1e-12


def draw_scores(data, n, g):
    raw = data.draw(arrays(np.float64, (n, g), elements=st.floats(-1.0, 1.0)), label="scores")
    return np.round(raw, 1)  # one decimal makes ties common, -0.0 included


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_direction_aps_bit_identical_to_loop(data):
    n = data.draw(st.integers(1, 30), label="queries")
    g = data.draw(st.integers(1, 30), label="gallery")
    sims = draw_scores(data, n, g)
    # label 3 never occurs in the gallery, so some queries have nothing relevant
    query_labels = data.draw(arrays(np.int64, n, elements=st.integers(0, 3)), label="query labels")
    gallery_labels = data.draw(arrays(np.int64, g, elements=st.integers(0, 2)),
                               label="gallery labels")
    assert_matches_loop(sims, query_labels, gallery_labels)
    assert_matches_loop(sims.T, gallery_labels, query_labels)


def two_threads(monkeypatch, queries):
    """Make ``cross_modal_map`` rank v2a on a pool thread from ``queries`` up."""
    monkeypatch.setattr(evaluate, "PARALLEL_QUERIES", queries)
    monkeypatch.setattr(dc, "_WORKERS", 2)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cross_modal_map_bit_identical_inline_and_on_two_threads(monkeypatch, data):
    """The scores of the loop-oracle test as z_a, with z_v the identity so
    that z_a @ z_v.T is z_a; a NaN label matches no item, so its queries are
    warned about in both directions."""
    n = data.draw(st.integers(1, 30), label="items")
    z_a = draw_scores(data, n, n)
    labels = data.draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0, 2.0, np.nan])),
                       label="labels")
    concurrently, threads = dc._concurrently, []

    def spying_concurrently(calls):
        threads.append(threading.get_ident())
        return concurrently([partial(on_thread, call) for call in calls])

    def on_thread(call):
        threads.append(threading.get_ident())
        return call()

    runs = []
    for queries in (n + 1, n):  # inline, then on two threads
        with monkeypatch.context() as patch:
            two_threads(patch, queries)
            patch.setattr(dc, "_concurrently", spying_concurrently)
            runs.append(recorded(cross_modal_map, z_a, np.eye(n), labels))
    caller = threading.get_ident()
    # the dispatch on the calling thread, then a2v on it and v2a on another
    assert threads[0] == caller and sorted(t == caller for t in threads[1:]) == [False, True]
    (inline, inline_messages), (threaded, threaded_messages) = runs
    assert inline_messages == threaded_messages
    for got, want in ((threaded.ap_a2v, inline.ap_a2v), (threaded.ap_v2a, inline.ap_v2a)):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert repr(threaded.map_avg) == repr(inline.map_avg)


def test_error_in_the_pool_direction_reaches_the_caller(monkeypatch):
    two_threads(monkeypatch, 4)
    ranked = evaluate._direction_aps
    caller = threading.get_ident()

    def failing(sims, query_labels, gallery_labels):
        if threading.get_ident() != caller:
            raise RuntimeError("v2a failed")
        return ranked(sims, query_labels, gallery_labels)

    monkeypatch.setattr(evaluate, "_direction_aps", failing)
    z = unit_rows(np.random.default_rng(5).normal(size=(6, 3)))
    with pytest.raises(RuntimeError, match="v2a failed"):
        cross_modal_map(z, z, np.array([0, 0, 1, 1, 2, 2]))


def test_direction_aps_bit_identical_to_loop_at_scale():
    # about 150-200 relevant items per query, past numpy's 128-term pairwise block
    rng = np.random.default_rng(4)
    sims = np.round(rng.normal(size=(400, 300)), 2)
    query_labels = rng.integers(0, 2, 400)
    gallery_labels = rng.integers(0, 2, 300)
    assert np.bincount(gallery_labels).min() > 128
    assert_matches_loop(sims, query_labels, gallery_labels)
    assert_matches_loop(sims.T, gallery_labels, query_labels)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cross_modal_map_rejects_non_finite_scores(bad):
    z = np.ones((3, 2))
    z_bad = z.copy()
    z_bad[1, 1] = bad
    with pytest.raises(NumericError, match="cross_modal_map: non-finite"):
        cross_modal_map(z, z_bad, np.array([0, 0, 1]))


def test_perfect_class_embeddings_score_one():
    labels = np.array([0, 0, 1, 1, 2, 2])
    z = np.eye(3)[labels]
    report = cross_modal_map(z, z.copy(), labels)
    assert report.map_a2v == pytest.approx(1.0)
    assert report.map_v2a == pytest.approx(1.0)
    assert report.gap == pytest.approx(0.0)


def test_cross_modal_map_validation():
    with pytest.raises(ValueError):
        cross_modal_map(np.zeros((3, 2)), np.zeros((4, 2)), np.zeros(3))


def test_retrieval_embeddings_unit_rows(synth_default):
    from hscmae.model import ModelParams
    from conftest import desk_model_config
    _, test = synth_default
    mp = ModelParams(desk_model_config(), seed=0)
    za, zv = retrieval_embeddings(mp, None, test.audio[:20], test.visual[:20])
    np.testing.assert_allclose(np.linalg.norm(za, axis=1), np.ones(20), atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(zv, axis=1), np.ones(20), atol=1e-12)


def test_random_baseline_near_chance(synth_default):
    train_set, test_set = synth_default
    cfg = desk_train_config()
    report = run_baseline("random", train_set, test_set, cfg)
    assert abs(report.map_avg - 0.125) < 0.02
    again = run_baseline("random", train_set, test_set, cfg)
    assert report.map_avg == again.map_avg  # seeded, hence reproducible


def test_cca_baseline_beats_random(synth_default):
    train_set, test_set = synth_default
    cfg = desk_train_config()
    cca = run_baseline("cca", train_set, test_set, cfg)
    rand = run_baseline("random", train_set, test_set, cfg)
    assert cca.map_avg > rand.map_avg + 0.10


def test_infonce_single_baseline_runs():
    rng = np.random.default_rng(2)
    shared = rng.normal(size=(120, 2))
    labels = (shared[:, 0] > 0).astype(int)
    train_set = FeatureSet(audio=shared @ rng.normal(size=(2, 12)) + 0.2 * rng.normal(size=(120, 12)),
                           visual=shared @ rng.normal(size=(2, 24)) + 0.2 * rng.normal(size=(120, 24)),
                           labels=labels)
    cfg = desk_train_config(epochs=2, batch_size=60)
    report = run_baseline("infonce-single", train_set, train_set, cfg)
    assert 0.0 <= report.map_avg <= 1.0


def test_baseline_name_and_label_validation(synth_default):
    train_set, test_set = synth_default
    cfg = desk_train_config()
    with pytest.raises(ValueError):
        run_baseline("nope", train_set, test_set, cfg)
    unlabeled = FeatureSet(audio=test_set.audio, visual=test_set.visual, labels=None)
    with pytest.raises(ValueError):
        run_baseline("random", train_set, unlabeled, cfg)


def test_score_variants_scores_each_training_through_its_cca_in_order():
    rng = np.random.default_rng(3)
    shared = rng.normal(size=(100, 2))
    fs = FeatureSet(audio=shared @ rng.normal(size=(2, 12)) + 0.3 * rng.normal(size=(100, 12)),
                    visual=shared @ rng.normal(size=(2, 24)) + 0.3 * rng.normal(size=(100, 24)),
                    labels=(shared[:, 0] > 0).astype(int))
    cfg = desk_train_config(epochs=1, batch_size=50)
    variants = [replace(cfg, mask_ratio=0.3), replace(cfg, mask_ratio=0.0, use_dis=False)]
    reports = score_variants(fs, fs, variants)
    assert len(reports) == 2
    for variant, report in zip(variants, reports):
        result = train(fs.unlabeled(), variant)
        want = evaluate_model(result.params, result.cca_model, fs)
        assert (report.map_a2v, report.map_v2a, report.map_avg) == (want.map_a2v, want.map_v2a, want.map_avg)
        assert report.ap_a2v.tobytes() == want.ap_a2v.tobytes()


def test_report_and_rank_list_rows():
    labels = np.array([0, 1])
    z = np.eye(2)
    report = cross_modal_map(z, z.copy(), labels)
    rows = report_rows([("model", report)])
    assert rows[0] == "name,map_a2v,map_v2a,map_avg,gap"
    assert rows[1] == f"model,{report.map_a2v!r},{report.map_v2a!r},{report.map_avg!r},{report.gap!r}"
    assert report_rows([("0,1", report), ("1,0", report)], "cca,rec") == [
        "cca,rec,map_a2v,map_v2a,map_avg,gap", "0,1" + rows[1][5:], "1,0" + rows[1][5:]]
    rl = rank_list_rows(z, z.copy(), labels)
    assert rl[0] == "query,rank,gallery,relevant"
    assert rl[1] == "0,1,0,1"  # query 0 retrieves itself first
    assert len(rl) == 1 + 2 * 2  # a gallery smaller than RANK_LIST_TOP is listed whole


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rank_list_rows_match_lexsort_ranking(data):
    # n on both sides of RANK_LIST_TOP, and past the 16-item insertion-sort cutoff
    n = data.draw(st.integers(1, 4 * evaluate.RANK_LIST_TOP), label="n")
    raw = data.draw(arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)), label="z_v")
    labels = data.draw(arrays(np.int64, n, elements=st.integers(0, 2)), label="labels")
    z_a, z_v = np.eye(n), np.round(raw, 1)  # similarities are z_v's entries, ties common
    sims = z_a @ z_v.T
    want = ["query,rank,gallery,relevant"]
    for i in range(n):
        for rank, j in enumerate(rank_gallery(sims[i])[:evaluate.RANK_LIST_TOP], start=1):
            want.append(f"{i},{rank},{j},{int(labels[j] == labels[i])}")
    assert rank_list_rows(z_a, z_v, labels) == want
