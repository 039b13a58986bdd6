"""Stream composition: apportionment, schedules, samplers, single-pass discipline."""

import json

import numpy as np
import pytest

from streamlora.autograd import named_rng
from streamlora.stream import (
    STREAM_FORMAT,
    Chunk,
    StreamSchedule,
    TaskSampler,
    apportion,
    build_default_stream,
    compose_chunk,
    make_task_specs,
    single_pass_stream,
    stream_manifest,
)


def default_setup(seed=0, n_chunks=12, chunk_size=200):
    schedule = build_default_stream(seed, n_chunks=n_chunks, chunk_size=chunk_size)
    specs = make_task_specs(seed)
    samplers = [TaskSampler(spec, seed) for spec in specs]
    return schedule, specs, samplers


# ---------------------------------------------------------------------------
# apportionment
# ---------------------------------------------------------------------------


def test_apportion_three_way_split_of_200():
    counts = apportion(np.array([1, 1, 1]) / 3.0, 200)
    np.testing.assert_array_equal(counts, [67, 67, 66])


def test_apportion_exact_halves_need_no_rounding():
    np.testing.assert_array_equal(apportion(np.array([0.5, 0.5]), 200), [100, 100])


def test_apportion_ties_favor_lower_index():
    np.testing.assert_array_equal(apportion(np.array([0.5, 0.5]), 3), [2, 1])


def test_apportion_always_sums_to_total_and_spares_zeros():
    rng = named_rng(0, "apportion")
    for _ in range(300):
        n = int(rng.integers(2, 7))
        raw = rng.uniform(size=n)
        raw[rng.uniform(size=n) < 0.3] = 0.0
        if raw.sum() == 0.0:
            raw[0] = 1.0
        p = raw / raw.sum()
        total = int(rng.integers(0, 500))
        counts = apportion(p, total)
        assert counts.sum() == total
        assert np.all(counts >= 0)
        assert np.all(counts[p == 0.0] == 0)


def test_apportion_validates_inputs():
    with pytest.raises(ValueError, match="non-negative"):
        apportion(np.array([0.5, 0.5]), -1)
    with pytest.raises(ValueError, match="sum to 1"):
        apportion(np.array([0.6, 0.6]), 10)
    with pytest.raises(ValueError, match="sum to 1"):
        apportion(np.array([-0.5, 1.5]), 10)


# ---------------------------------------------------------------------------
# task specs and samplers
# ---------------------------------------------------------------------------


def test_task_templates_are_pairwise_disjoint_and_avoid_noise_range():
    specs = make_task_specs(0, n_tasks=5, vocab_size=64)
    seen = set()
    for spec in specs:
        assert len(spec.template) == 3
        assert not (set(spec.template) & seen)
        seen.update(spec.template)
        assert max(spec.template) < spec.noise_lo
        assert 0 not in spec.template  # token 0 stays reserved
    assert specs[0].noise_lo == 1 + 3 * 5
    assert specs[0].noise_hi == 64


def test_task_specs_use_disjoint_label_ranges():
    specs = make_task_specs(0, n_tasks=4, classes_per_task=3)
    offsets = [spec.class_offset for spec in specs]
    assert offsets == [0, 3, 6, 9]


def test_prototypes_are_unit_norm_and_seed_stable():
    a = make_task_specs(5)[2].prototypes
    b = make_task_specs(5)[2].prototypes
    np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, rtol=1e-12)


def test_make_task_specs_rejects_tiny_vocab():
    with pytest.raises(ValueError, match="too small"):
        make_task_specs(0, n_tasks=5, vocab_size=17)


def test_draw_train_is_deterministic_and_well_formed():
    spec = make_task_specs(3)[1]
    sampler = TaskSampler(spec, seed=3)
    again = TaskSampler(spec, seed=3)
    batch = sampler.draw_train(chunk_index=2, count=20)
    rebatch = again.draw_train(chunk_index=2, count=20)
    assert [s.uid for s in batch] == [f"t1-c2-{i}" for i in range(20)]
    for s, r in zip(batch, rebatch):
        assert s.uid == r.uid and s.label == r.label
        np.testing.assert_array_equal(s.visual, r.visual)
        assert s.instruction[:3] == spec.template
        assert all(spec.noise_lo <= t < spec.noise_hi for t in s.instruction[3:])
        assert spec.class_offset <= s.label < spec.class_offset + spec.n_classes
        assert s.task_id == 1


def test_test_set_is_frozen_class_balanced_and_disjoint_from_training():
    spec = make_task_specs(4)[0]
    sampler = TaskSampler(spec, seed=4)
    test = sampler.test_set()
    assert test is sampler.test_set()  # cached, one frozen copy
    assert len(test) == spec.test_size
    labels = [s.label for s in test]
    counts = np.bincount(labels, minlength=spec.n_classes)
    assert counts.max() - counts.min() <= 1
    test_uids = {s.uid for s in test}
    train_uids = {s.uid for s in sampler.draw_train(1, 200)}
    assert not (test_uids & train_uids)


def test_zero_noise_makes_visual_tokens_exact_prototypes():
    spec = make_task_specs(6, sigma=0.0)[2]
    for s in TaskSampler(spec, seed=6).draw_train(1, 10):
        local = s.label - spec.class_offset
        np.testing.assert_array_equal(s.visual, np.tile(spec.prototypes[local], (4, 1)))


def test_pooled_instruction_embeddings_identify_the_task():
    # nearest centroid on mean-pooled embeddings should recover the task:
    # templates inject a task-specific offset that noise tokens cannot bury
    specs = make_task_specs(0)
    embed = named_rng(0, "embed").normal(0.0, 1.0 / np.sqrt(32), size=(64, 32))
    feats, labels = [], []
    for spec in specs:
        for s in TaskSampler(spec, seed=0).test_set():
            feats.append(embed[list(s.instruction)].mean(axis=0))
            labels.append(s.task_id)
    feats, labels = np.asarray(feats), np.asarray(labels)
    centroids = np.stack([feats[labels == m].mean(axis=0) for m in range(5)])
    pred = np.argmin(((feats[:, None, :] - centroids[None]) ** 2).sum(-1), axis=1)
    assert (pred == labels).mean() >= 0.95


# ---------------------------------------------------------------------------
# the default schedule
# ---------------------------------------------------------------------------


def test_default_schedule_shape_and_mixture_rows():
    schedule = build_default_stream(0)
    assert schedule.n_chunks == 12 and schedule.chunk_size == 200
    assert schedule.mixtures.shape == (12, 5)
    assert np.all(schedule.mixtures >= 0.0)
    np.testing.assert_allclose(schedule.mixtures.sum(axis=1), 1.0, atol=1e-12)
    schedule.validate()


def test_first_task_appears_early_then_retires_for_good():
    for seed in range(5):
        mix = build_default_stream(seed).mixtures
        assert np.all(mix[:4, 0] > 0.0)        # present in chunks 1..4
        assert np.all(mix[4:, 0] == 0.0)       # exactly zero ever after
        # chunks 1..4 introduce every other task exactly once
        partners = [int(np.flatnonzero(mix[t])[1]) for t in range(4)]
        assert partners == [1, 2, 3, 4]


def test_schedule_is_seed_stable():
    a = build_default_stream(2).mixtures
    b = build_default_stream(2).mixtures
    c = build_default_stream(3).mixtures
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_build_default_stream_rejects_degenerate_requests():
    with pytest.raises(ValueError, match="at least two tasks"):
        build_default_stream(0, n_tasks=1)
    with pytest.raises(ValueError, match="at least 7 chunks"):
        build_default_stream(0, n_chunks=6)


def test_schedule_validate_rejects_bad_mixtures():
    bad = StreamSchedule(chunk_size=10, mixtures=np.array([[0.7, 0.2], [0.5, 0.5]]), seed=0)
    with pytest.raises(ValueError, match="sum to 1"):
        bad.validate()
    negative = StreamSchedule(chunk_size=10, mixtures=np.array([[1.5, -0.5]]), seed=0)
    with pytest.raises(ValueError, match="non-negative"):
        negative.validate()


# ---------------------------------------------------------------------------
# chunk composition and the single-pass contract
# ---------------------------------------------------------------------------


def test_compose_chunk_matches_apportioned_counts():
    schedule, _, samplers = default_setup(seed=1)
    chunk = compose_chunk(schedule, 3, samplers)
    assert len(chunk.samples) == 200
    np.testing.assert_array_equal(schedule.counts[2], apportion(schedule.mixtures[2], 200))
    observed = np.bincount([s.task_id for s in chunk.samples], minlength=5)
    np.testing.assert_array_equal(observed, schedule.counts[2])


def test_compose_chunk_shuffles_but_keeps_the_multiset():
    schedule, _, samplers = default_setup(seed=2)
    chunk = compose_chunk(schedule, 1, samplers)
    in_order = []
    for task_id, count in enumerate(schedule.counts[0]):
        if count:
            in_order.extend(s.uid for s in samplers[task_id].draw_train(1, int(count)))
    shuffled = [s.uid for s in chunk.samples]
    assert shuffled != in_order          # genuinely permuted
    assert sorted(shuffled) == sorted(in_order)


def test_compose_chunk_validates_index_and_sampler_count():
    schedule, _, samplers = default_setup(seed=3)
    with pytest.raises(ValueError, match="chunk index"):
        compose_chunk(schedule, 0, samplers)
    with pytest.raises(ValueError, match="chunk index"):
        compose_chunk(schedule, 13, samplers)
    with pytest.raises(ValueError, match="one sampler per task"):
        compose_chunk(schedule, 1, samplers[:-1])


def test_retired_chunk_refuses_to_serve_samples():
    schedule, _, samplers = default_setup(seed=4)
    chunk = compose_chunk(schedule, 1, samplers)
    assert len(chunk.samples) == 200
    chunk.retire()
    with pytest.raises(RuntimeError, match="single-pass"):
        _ = chunk.samples


def test_single_pass_stream_retires_each_chunk_behind_itself():
    schedule, _, samplers = default_setup(seed=5, n_chunks=7, chunk_size=40)
    stream = single_pass_stream(schedule, samplers)
    seen: list[Chunk] = []
    for chunk in stream:
        assert len(chunk.samples) == 40
        if seen:
            with pytest.raises(RuntimeError, match="single-pass"):
                _ = seen[-1].samples
        seen.append(chunk)
    assert [c.index for c in seen] == list(range(1, 8))
    with pytest.raises(RuntimeError, match="single-pass"):
        _ = seen[-1].samples  # the final chunk is retired on exhaustion too
    assert list(stream) == []  # a second loop replays nothing


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


def test_manifest_describes_the_schedule_and_tasks():
    schedule, specs, samplers = default_setup(seed=6, n_chunks=7, chunk_size=30)
    manifest = json.loads(json.dumps(stream_manifest(schedule, specs)))
    assert set(manifest) == {"format", "seed", "n_chunks", "chunk_size", "n_tasks", "mixtures",
                             "counts", "tasks"}
    assert manifest["format"] == STREAM_FORMAT
    assert manifest["n_chunks"] == 7
    assert manifest["chunk_size"] == 30
    assert manifest["n_tasks"] == 5
    assert [task["task_id"] for task in manifest["tasks"]] == list(range(5))
    np.testing.assert_allclose(np.asarray(manifest["mixtures"]), schedule.mixtures)
    for row, total in zip(manifest["counts"], [30] * 7):
        assert sum(row) == total


def test_manifest_counts_agree_with_composed_chunks():
    schedule, specs, samplers = default_setup(seed=8, n_chunks=7, chunk_size=50)
    manifest = stream_manifest(schedule, specs)
    for t in range(1, 8):
        chunk = compose_chunk(schedule, t, samplers)
        drawn = np.bincount([s.task_id for s in chunk.samples], minlength=schedule.n_tasks)
        assert manifest["counts"][t - 1] == drawn.tolist()
