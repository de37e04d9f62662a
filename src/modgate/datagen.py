"""Synthetic multi-modal sequence generator with planted informativeness.

Each video is T segments by K modalities.  A Bernoulli mask decides which
(segment, modality) cells carry class signal: informative cells are drawn
around a class mean, the rest are pure noise at the origin.  Class means per
modality sit at pairwise distance ``signal_margin`` (scaled orthonormal
placement), so a nearest-mean oracle on informative cells is near-perfect for
small noise and at chance on uninformative ones.  Policy views are a fixed
linear projection of the recognition views plus corruption noise.

The on-disk format is little-endian binary, magic ``AMMLDS1``; loading
validates every field and names the byte offset of the first problem.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataFormatError
from .modality import ModalitySpec, default_modalities

DATASET_MAGIC = b"AMMLDS1"
DATASET_VERSION = 1


@dataclass
class GenSpec:
    """Everything the generator needs; fully determined by ``seed``."""

    modalities: list = field(default_factory=default_modalities)
    informative_probs: list = field(default_factory=lambda: [0.4, 0.6])
    n_classes: int = 4
    n_videos: int = 200
    segments: int = 10
    signal_margin: float = 2.0
    noise_sigma: float = 0.5
    proxy_corruption: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be at least 2, got {self.n_classes}")
        if self.n_videos < 1:
            raise ConfigError(f"n_videos must be positive, got {self.n_videos}")
        if self.segments < 1:
            raise ConfigError(f"segments must be positive, got {self.segments}")
        if len(self.modalities) < 1:
            raise ConfigError("need at least one modality")
        if len(self.informative_probs) != len(self.modalities):
            raise ConfigError(
                f"{len(self.informative_probs)} informative probabilities for "
                f"{len(self.modalities)} modalities"
            )
        for p in self.informative_probs:
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"informative probability {p} outside [0, 1]")
        if not any(p > 0.0 for p in self.informative_probs):
            # generation resamples until every video carries signal somewhere,
            # which can never finish if no modality is ever informative
            raise ConfigError("at least one informative probability must be positive")
        if not self.signal_margin > 0.0:
            raise ConfigError(f"signal_margin must be positive, got {self.signal_margin}")
        if self.noise_sigma < 0.0 or self.proxy_corruption < 0.0:
            raise ConfigError("noise levels must be non-negative")
        for spec in self.modalities:
            if self.n_classes + 1 > spec.recog_dim:
                raise ConfigError(
                    f"modality {spec.name!r}: cannot place {self.n_classes} class means "
                    f"plus a carrier direction at margin {self.signal_margin} in "
                    f"{spec.recog_dim} dimensions"
                )


@dataclass
class VideoExample:
    """One video: per-modality view stacks, a label, and the planted mask."""

    recog_views: list  # K arrays of shape (T, recog_dim_k)
    policy_views: list  # K arrays of shape (T, policy_dim_k)
    label: int
    mask: np.ndarray | None  # (T, K) bool, None when unknown

    @property
    def n_segments(self):
        return self.recog_views[0].shape[0]

    @property
    def n_modalities(self):
        return len(self.recog_views)


@dataclass
class Dataset:
    videos: list
    n_classes: int
    recog_dims: list
    policy_dims: list
    segments: int

    @property
    def n_modalities(self):
        return len(self.recog_dims)

    def __len__(self):
        return len(self.videos)


def subsample(video, indices):
    """A new VideoExample restricted to the given segment positions."""
    idx = np.asarray(indices, dtype=int)
    return VideoExample(
        recog_views=[v[idx] for v in video.recog_views],
        policy_views=[v[idx] for v in video.policy_views],
        label=video.label,
        mask=None if video.mask is None else video.mask[idx],
    )


def class_means(spec):
    """Per-modality class means, pairwise distance exactly ``signal_margin``.

    QR of a seeded Gaussian matrix gives n_classes + 1 orthonormal directions;
    every mean is radius * (carrier + class direction) with radius =
    margin/sqrt(2).  The shared carrier component keeps all means on one side
    of the origin, so "a class signal is present here" is a linear statistic —
    the analog of raw energy in a cheap sensor stream — while pairwise
    distances between means depend only on the class directions.
    """
    rng = np.random.default_rng([spec.seed, 0])
    radius = spec.signal_margin / np.sqrt(2.0)
    means = []
    for m in spec.modalities:
        a = rng.standard_normal((m.recog_dim, spec.n_classes + 1))
        q, _ = np.linalg.qr(a)
        carrier = q[:, 0]
        means.append(radius * (carrier[None, :] + q[:, 1:].T))
    return means


def policy_projections(spec):
    """Fixed per-modality projection matrices from recognition to policy views."""
    rng = np.random.default_rng([spec.seed, 1])
    return [
        rng.standard_normal((m.policy_dim, m.recog_dim)) / np.sqrt(m.recog_dim)
        for m in spec.modalities
    ]


def generate(spec):
    """Deterministically produce a Dataset from a GenSpec."""
    means = class_means(spec)
    projections = policy_projections(spec)
    probs = np.asarray(spec.informative_probs)
    T, K = spec.segments, len(spec.modalities)
    videos = []
    for i in range(spec.n_videos):
        rng = np.random.default_rng([spec.seed, 2, i])
        label = int(rng.integers(spec.n_classes))
        mask = rng.random((T, K)) < probs
        while not mask.any():  # every video must carry signal somewhere
            mask = rng.random((T, K)) < probs
        recog_views = []
        for k, m in enumerate(spec.modalities):
            noise = spec.noise_sigma * rng.standard_normal((T, m.recog_dim))
            recog_views.append(mask[:, k : k + 1] * means[k][label] + noise)
        policy_views = []
        for k, m in enumerate(spec.modalities):
            view = recog_views[k] @ projections[k].T
            view = view + spec.proxy_corruption * rng.standard_normal((T, m.policy_dim))
            policy_views.append(view)
        videos.append(VideoExample(recog_views, policy_views, label, mask))
    return Dataset(
        videos=videos,
        n_classes=spec.n_classes,
        recog_dims=[m.recog_dim for m in spec.modalities],
        policy_dims=[m.policy_dim for m in spec.modalities],
        segments=T,
    )


def nearest_mean_accuracy(dataset, means, use_informative=True):
    """Oracle classifier: nearest class mean over masked (or unmasked) cells.

    Scores each class by the summed negative squared distance of the chosen
    cells to that class's mean; videos with no chosen cell count as class 0.
    """
    hits = 0
    for video in dataset.videos:
        scores = np.zeros(dataset.n_classes)
        any_cell = False
        for k in range(dataset.n_modalities):
            cells = video.mask[:, k] if use_informative else ~video.mask[:, k]
            for t in np.nonzero(cells)[0]:
                x = video.recog_views[k][t]
                scores -= ((x - means[k]) ** 2).sum(axis=1)
                any_cell = True
        pred = int(np.argmax(scores)) if any_cell else 0
        hits += pred == video.label
    return hits / len(dataset.videos)


# ---------------------------------------------------------------------------
# binary dataset format


def predicted_file_size(n_videos, segments, K, recog_dims, policy_dims):
    per_video = 4 + segments * K + 8 * segments * (sum(recog_dims) + sum(policy_dims))
    return len(DATASET_MAGIC) + 5 * 4 + K * 8 + n_videos * per_video


def save_dataset(dataset, path):
    out = bytearray()
    out += DATASET_MAGIC
    out += struct.pack(
        "<5I",
        DATASET_VERSION,
        len(dataset.videos),
        dataset.segments,
        dataset.n_modalities,
        dataset.n_classes,
    )
    for rd, pd in zip(dataset.recog_dims, dataset.policy_dims):
        out += struct.pack("<2I", rd, pd)
    for video in dataset.videos:
        out += struct.pack("<I", video.label)
        out += np.ascontiguousarray(video.mask, dtype=np.uint8).tobytes()
        # each view group is one (T, sum of widths) row-major block
        out += np.concatenate(video.recog_views, axis=1, dtype="<f8").tobytes()
        out += np.concatenate(video.policy_views, axis=1, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(out)


class _Cursor:
    """Byte reader that reports the offset of whatever went wrong."""

    def __init__(self, data, label):
        self.data = data
        self.pos = 0
        self.label = label

    def take(self, n, what):
        if self.pos + n > len(self.data):
            raise DataFormatError(
                f"{self.label}: truncated reading {what} at offset {self.pos} "
                f"(need {n} bytes, have {len(self.data) - self.pos})"
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def views(self, segments, widths):
        """One (segments, sum(widths)) float64 block, split into per-view arrays.

        Unchecked: the caller has matched the file length against the header.
        """
        total = sum(widths)
        rows = np.frombuffer(self.data, "<f8", segments * total, self.pos)
        rows = rows.reshape(segments, total)
        self.pos += rows.nbytes
        edges = np.cumsum([0] + widths)
        return [rows[:, a:b].astype(np.float64, order="C") for a, b in zip(edges, edges[1:])]


def load_dataset(path):
    with open(path, "rb") as fh:
        data = fh.read()
    cur = _Cursor(data, "dataset")
    magic = cur.take(len(DATASET_MAGIC), "magic")
    if magic != DATASET_MAGIC:
        raise DataFormatError(f"dataset: bad magic {magic!r} at offset 0")
    version = cur.u32("version")
    if version != DATASET_VERSION:
        raise DataFormatError(f"dataset: unsupported version {version} at offset 7")
    n_videos = cur.u32("video count")
    segments = cur.u32("segment count")
    K = cur.u32("modality count")
    n_classes = cur.u32("class count")
    if n_videos < 1 or segments < 1 or K < 1 or n_classes < 2:
        raise DataFormatError(
            f"dataset: implausible header (videos={n_videos}, T={segments}, "
            f"K={K}, classes={n_classes}) at offset 11"
        )
    recog_dims, policy_dims = [], []
    for k in range(K):
        at = cur.pos
        rd = cur.u32(f"modality {k} recognition width")
        pd = cur.u32(f"modality {k} policy width")
        if rd < 1 or pd < 1:
            raise DataFormatError(f"dataset: zero view width for modality {k} at offset {at}")
        recog_dims.append(rd)
        policy_dims.append(pd)
    # the header fixes the file length: check it before allocating anything
    size = predicted_file_size(n_videos, segments, K, recog_dims, policy_dims)
    if len(data) < size:
        raise DataFormatError(
            f"dataset: truncated: file ends at offset {len(data)}, header describes {size} bytes"
        )
    if len(data) > size:
        raise DataFormatError(f"dataset: {len(data) - size} trailing bytes at offset {size}")

    videos = []
    for i in range(n_videos):
        at = cur.pos
        label = cur.u32(f"video {i} label")
        if label >= n_classes:
            raise DataFormatError(
                f"dataset: video {i} label {label} outside {n_classes} classes at offset {at}"
            )
        at = cur.pos
        mask_raw = np.frombuffer(cur.take(segments * K, f"video {i} mask"), dtype=np.uint8)
        if np.any(mask_raw > 1):
            raise DataFormatError(f"dataset: video {i} mask byte not 0/1 at offset {at}")
        mask = mask_raw.reshape(segments, K).astype(bool)
        recog_views = cur.views(segments, recog_dims)
        policy_views = cur.views(segments, policy_dims)
        videos.append(VideoExample(recog_views, policy_views, int(label), mask))
    return Dataset(videos, int(n_classes), recog_dims, policy_dims, int(segments))
