"""Tests for the synthetic generator and the binary dataset/checkpoint formats."""

import struct
import tracemalloc

import numpy as np
import pytest

from modgate.checkpoint import CHECKPOINT_MAGIC, load_checkpoint, save_checkpoint
from modgate.datagen import (
    DATASET_MAGIC,
    Dataset,
    GenSpec,
    class_means,
    generate,
    load_dataset,
    nearest_mean_accuracy,
    predicted_file_size,
    save_dataset,
    subsample,
)
from modgate.errors import ConfigError, DataFormatError
from modgate.modality import ModalitySpec


def small_spec(**overrides):
    base = dict(n_videos=30, segments=6, seed=5)
    base.update(overrides)
    return GenSpec(**base)


class TestGeneration:
    def test_zero_noise_informative_cells_equal_class_means(self):
        spec = small_spec(noise_sigma=0.0, proxy_corruption=0.0)
        means = class_means(spec)
        data = generate(spec)
        for video in data.videos:
            for k in range(data.n_modalities):
                for t in range(data.segments):
                    expected = means[k][video.label] if video.mask[t, k] else 0.0
                    np.testing.assert_array_equal(video.recog_views[k][t], expected)

    def test_class_means_pairwise_distance_is_margin(self):
        spec = small_spec(signal_margin=3.0)
        for mk in class_means(spec):
            for a in range(spec.n_classes):
                for b in range(a + 1, spec.n_classes):
                    d = np.linalg.norm(mk[a] - mk[b])
                    assert abs(d - 3.0) < 1e-9

    def test_unit_probability_gives_all_true_masks(self):
        data = generate(small_spec(informative_probs=[1.0, 1.0]))
        for video in data.videos:
            assert video.mask.all()

    def test_every_video_has_signal_even_at_tiny_probability(self):
        data = generate(small_spec(informative_probs=[0.01, 0.01], n_videos=200))
        for video in data.videos:
            assert video.mask.any()

    def test_mask_density_tracks_probabilities(self):
        data = generate(small_spec(n_videos=400, informative_probs=[0.3, 0.7]))
        masks = np.stack([v.mask for v in data.videos])
        np.testing.assert_allclose(masks.mean(axis=(0, 1)), [0.3, 0.7], atol=0.03)

    def test_determinism_bitwise(self):
        a, b = generate(small_spec()), generate(small_spec())
        for va, vb in zip(a.videos, b.videos):
            assert va.label == vb.label
            np.testing.assert_array_equal(va.mask, vb.mask)
            for k in range(2):
                np.testing.assert_array_equal(va.recog_views[k], vb.recog_views[k])
                np.testing.assert_array_equal(va.policy_views[k], vb.policy_views[k])

    def test_infeasible_margin_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(signal_margin=0.0)

    def test_too_many_classes_for_width_rejected(self):
        mods = [ModalitySpec("tiny", recog_dim=3, policy_dim=2)]
        with pytest.raises(ConfigError):
            GenSpec(modalities=mods, informative_probs=[0.5], n_classes=5)

    def test_all_zero_informative_probs_rejected(self):
        # would make the signal-somewhere resampling loop unsatisfiable
        with pytest.raises(ConfigError):
            small_spec(informative_probs=[0.0, 0.0])

    def test_subsample_picks_rows(self):
        data = generate(small_spec())
        video = data.videos[0]
        sub = subsample(video, [1, 3, 5])
        assert sub.n_segments == 3
        np.testing.assert_array_equal(sub.recog_views[0][1], video.recog_views[0][3])
        np.testing.assert_array_equal(sub.mask[2], video.mask[5])


class TestOracleSeparability:
    def test_nearest_mean_on_informative_cells_is_near_perfect(self):
        spec = small_spec(noise_sigma=0.1, signal_margin=2.0, n_videos=200)
        acc = nearest_mean_accuracy(generate(spec), class_means(spec), use_informative=True)
        assert acc >= 0.99

    def test_uninformative_cells_are_chance(self):
        spec = small_spec(noise_sigma=0.5, signal_margin=2.0, n_videos=600)
        data = generate(spec)
        means = class_means(spec)
        informative = nearest_mean_accuracy(data, means, use_informative=True)
        uninformative = nearest_mean_accuracy(data, means, use_informative=False)
        assert informative > uninformative
        assert abs(uninformative - 1.0 / spec.n_classes) < 0.05


class TestDatasetFormat:
    def test_roundtrip_bitwise(self, tmp_path):
        data = generate(small_spec())
        path = tmp_path / "d.bin"
        save_dataset(data, path)
        back = load_dataset(path)
        assert back.n_classes == data.n_classes
        assert back.recog_dims == data.recog_dims
        assert back.policy_dims == data.policy_dims
        assert back.segments == data.segments
        for va, vb in zip(data.videos, back.videos):
            assert va.label == vb.label
            np.testing.assert_array_equal(va.mask, vb.mask)
            for k in range(2):
                np.testing.assert_array_equal(va.recog_views[k], vb.recog_views[k])
                np.testing.assert_array_equal(va.policy_views[k], vb.policy_views[k])

    def test_file_size_matches_header_prediction(self, tmp_path):
        data = generate(small_spec())
        path = tmp_path / "d.bin"
        save_dataset(data, path)
        expected = predicted_file_size(
            len(data.videos), data.segments, 2, data.recog_dims, data.policy_dims
        )
        assert path.stat().st_size == expected

    def test_save_is_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_dataset(generate(small_spec()), p1)
        save_dataset(generate(small_spec()), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_on_disk(self, tmp_path):
        path = tmp_path / "d.bin"
        save_dataset(generate(small_spec()), path)
        assert path.read_bytes()[:7] == DATASET_MAGIC

    def test_bad_magic_names_offset(self, tmp_path):
        path = tmp_path / "d.bin"
        save_dataset(generate(small_spec()), path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="offset 0"):
            load_dataset(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "d.bin"
        save_dataset(generate(small_spec()), path)
        raw = bytearray(path.read_bytes())
        raw[7] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="version"):
            load_dataset(path)

    def test_truncation_names_offset(self, tmp_path):
        path = tmp_path / "d.bin"
        save_dataset(generate(small_spec()), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(DataFormatError, match="offset"):
            load_dataset(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "d.bin"
        save_dataset(generate(small_spec()), path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(DataFormatError, match="trailing"):
            load_dataset(path)

    def test_header_checked_against_file_length(self, tmp_path):
        path = tmp_path / "d.bin"
        blob = DATASET_MAGIC + struct.pack("<5I", 1, 1, 1, 1, 2)
        blob += struct.pack("<2I", 2**32 - 1, 1)
        path.write_bytes(blob + bytes(9))
        with pytest.raises(DataFormatError, match="offset 44"):
            load_dataset(path)

    def test_loaded_views_are_separate_writable_arrays(self, tmp_path):
        path = tmp_path / "d.bin"
        save_dataset(generate(small_spec(n_videos=2)), path)
        for video in load_dataset(path).videos:
            for view in video.recog_views + video.policy_views:
                assert view.flags.c_contiguous and view.flags.writeable
                assert view.dtype == np.float64

    def test_corrupt_mask_byte_rejected(self, tmp_path):
        data = generate(small_spec(n_videos=1))
        path = tmp_path / "d.bin"
        save_dataset(data, path)
        raw = bytearray(path.read_bytes())
        mask_at = 7 + 20 + 16 + 4  # magic, header, dims, label
        raw[mask_at] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="mask"):
            load_dataset(path)


class TestCheckpointFormat:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(3)
        state = {
            "policy.head0.W": rng.normal(size=(2, 5)),
            "recog.fusion": rng.normal(size=(2,)),
            "recog.sub0.b1": rng.normal(size=(7,)),
        }
        path = tmp_path / "c.bin"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        assert set(back) == set(state)
        for name in state:
            np.testing.assert_array_equal(back[name], state[name])
            assert back[name].shape == np.asarray(state[name]).shape

    def test_sorted_write_is_deterministic(self, tmp_path):
        a = {"b": np.ones(2), "a": np.zeros(3)}
        b = {"a": np.zeros(3), "b": np.ones(2)}
        p1, p2 = tmp_path / "1.bin", tmp_path / "2.bin"
        save_checkpoint(a, p1)
        save_checkpoint(b, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        save_checkpoint({"x": np.ones(1)}, path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="magic"):
            load_checkpoint(path)

    def test_truncation_names_offset(self, tmp_path):
        path = tmp_path / "c.bin"
        save_checkpoint({"x": np.ones(4)}, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(DataFormatError, match="offset"):
            load_checkpoint(path)

    def test_huge_declared_extents_fail_before_allocating(self, tmp_path):
        """A 2^32-1 x 2^32-1 parameter is checked against the file length first."""
        name = b"recog.sub0.W1"
        blob = CHECKPOINT_MAGIC + struct.pack("<I", len(name)) + name
        blob += struct.pack("<3I", 2, 2**32 - 1, 2**32 - 1) + bytes(16)
        path = tmp_path / "huge.ckpt"
        path.write_bytes(blob)
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match="recog.sub0.W1 values"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_scalar_rank_zero_supported(self, tmp_path):
        path = tmp_path / "c.bin"
        save_checkpoint({"s": np.asarray(3.25)}, path)
        back = load_checkpoint(path)
        assert back["s"].shape == ()
        assert float(back["s"]) == 3.25
