"""Correctness checks on a round's outputs.

Each check compares against a computation made here, apart from the program
(file sizes from the format, a numpy forward pass over the checkpoint's own
bytes, binomial bounds) or against a property the method must have (frozen
parameters stay bit-identical, warm-up selects everything).  Nothing is
compared against stored copies of earlier output.  A check returns a list of
failure messages; an empty list means it passed.
"""

from __future__ import annotations

import math
import struct

import numpy as np

DATASET_MAGIC = b"AMMLDS1"
CHECKPOINT_MAGIC = b"AMMLCKPT1"


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- dataset ------------------------------------------------------------------

def dataset_file_size(n_videos, segments, recog_dims, policy_dims):
    """Bytes of a dataset file: magic, five u32 header fields (version, videos,
    segments, modalities, classes), two u32 widths per modality, then per video
    a u32 label, one mask byte per cell and float64 recognition and policy
    views for every cell."""
    K = len(recog_dims)
    header = len(DATASET_MAGIC) + 5 * 4 + K * 2 * 4
    per_video = 4 + segments * K + 8 * segments * (sum(recog_dims) + sum(policy_dims))
    return header + n_videos * per_video


def check_dataset(generated, loaded, file_size, informative_probs):
    errors = []
    for attr in ("n_classes", "recog_dims", "policy_dims", "segments"):
        if getattr(generated, attr) != getattr(loaded, attr):
            errors.append(f"loaded {attr} differs from the generated one")
    if len(generated.videos) != len(loaded.videos):
        return errors + ["loaded video count differs from the generated one"]
    for i, (a, b) in enumerate(zip(generated.videos, loaded.videos)):
        same = (a.label == b.label and _same_bits(a.mask, b.mask)
                and all(_same_bits(x, y) for x, y in zip(a.recog_views, b.recog_views))
                and all(_same_bits(x, y) for x, y in zip(a.policy_views, b.policy_views)))
        if not same:
            errors.append(f"video {i} does not load back bit for bit")
            break
    expected = dataset_file_size(len(generated.videos), generated.segments,
                                 generated.recog_dims, generated.policy_dims)
    if file_size != expected:
        errors.append(f"dataset file is {file_size} bytes, the format gives {expected}")
    masks = np.stack([v.mask for v in generated.videos])  # (videos, T, K)
    if not masks.any(axis=(1, 2)).all():
        errors.append("a video has no informative cell")
    cells = masks.shape[0] * masks.shape[1]
    for k, p in enumerate(informative_probs):
        count = int(masks[:, :, k].sum())
        slack = 5.0 * math.sqrt(cells * p * (1.0 - p)) + 1.0
        if abs(count - cells * p) > slack:
            errors.append(f"modality {k}: {count} informative cells of {cells}, "
                          f"outside {cells * p:.1f} +- {slack:.1f}")
    return errors


# -- training -----------------------------------------------------------------

def check_training(rnd, epochs):
    errors = []
    phases = [row.phase for row in rnd.rows]
    expected = ["warmup"] * epochs[0] + ["alternate"] * epochs[1] + ["finetune"] * epochs[2]
    if phases != expected:
        errors.append(f"epoch phases {phases} != {expected}")
    for row in rnd.rows:
        if not math.isfinite(row.loss):
            errors.append(f"epoch {row.epoch} ({row.phase}) loss {row.loss} is not finite")
        if row.phase == "warmup" and any(rate != 1.0 for rate in row.sel_rates):
            errors.append(f"warm-up epoch {row.epoch} selection rates {row.sel_rates} != 1")
    for phase in ("warmup", "finetune"):
        before, after = rnd.policy_before[phase], rnd.policy_after[phase]
        changed = [n for n in before if not _same_bits(before[n], after[n])]
        if changed:
            errors.append(f"{phase} changed policy parameters {changed}")
    return errors


# -- checkpoint -----------------------------------------------------------------

def read_checkpoint(path):
    """Named float64 arrays from a checkpoint: per parameter a u32 name length,
    the UTF-8 name, a u32 rank, u32 extents, then row-major values."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(CHECKPOINT_MAGIC):
        raise ValueError("checkpoint: bad magic")
    pos = len(CHECKPOINT_MAGIC)
    arrays = {}
    while pos < len(data):
        (n,) = struct.unpack_from("<I", data, pos)
        name = data[pos + 4:pos + 4 + n].decode("utf-8")
        pos += 4 + n
        (rank,) = struct.unpack_from("<I", data, pos)
        shape = struct.unpack_from(f"<{rank}I", data, pos + 4)
        pos += 4 + 4 * rank
        count = math.prod(shape)
        arrays[name] = np.frombuffer(data, "<f8", count, pos).astype(np.float64).reshape(shape)
        pos += 8 * count
    return arrays


def check_checkpoint(arrays, state, eval_state):
    errors = []
    if set(arrays) != set(state):
        return [f"checkpoint names {sorted(set(arrays) ^ set(state))} differ from Model.state()"]
    for name in sorted(state):
        if not _same_bits(arrays[name], state[name]):
            errors.append(f"checkpoint array {name} differs from Model.state()")
        if not _same_bits(eval_state[name], state[name]):
            errors.append(f"loaded model's {name} differs from the saved one")
    return errors


# -- reference forward pass ----------------------------------------------------

def uniform_indices(total, wanted):
    """Evenly spaced segment positions: floor(i * total / wanted), or all."""
    if wanted >= total:
        return np.arange(total)
    return np.array([(i * total) // wanted for i in range(wanted)])


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def reference_forward(params, policy_views, recog_views):
    """Deterministic decisions and class probabilities for one clip.

    Policy: per-modality tanh extractors, two tanh layers, an LSTM cell (gate
    order i, f, g, o) and per-modality 2-way heads; a cell is selected when
    its select score beats its skip score strictly, so ties skip.
    Recognition: a two-layer tanh MLP per selected cell; a segment's logits
    are the selected logits weighted by the softmax of the fusion weights over
    the selected modalities; the video's probabilities are the softmax of the
    mean over segments with any selection, or uniform when there is none.
    Returns ``(U, probabilities)``.
    """
    K = len(policy_views)
    T = policy_views[0].shape[0]
    H = params["policy.lstm.Wh"].shape[1]
    n_classes = params["recog.sub0.b2"].shape[0]
    h, c = np.zeros(H), np.zeros(H)
    U = np.zeros((T, K), dtype=np.int8)
    active = []
    for t in range(T):
        parts = [np.tanh(params[f"policy.extractor.mod{k}.W"] @ policy_views[k][t]
                         + params[f"policy.extractor.mod{k}.b"]) for k in range(K)]
        x = np.concatenate(parts)
        x = np.tanh(params["policy.extractor.fc1.W"] @ x + params["policy.extractor.fc1.b"])
        x = np.tanh(params["policy.extractor.fc2.W"] @ x + params["policy.extractor.fc2.b"])
        pre = params["policy.lstm.Wx"] @ x + params["policy.lstm.Wh"] @ h + params["policy.lstm.b"]
        i, f = _sigmoid(pre[:H]), _sigmoid(pre[H:2 * H])
        g, o = np.tanh(pre[2 * H:3 * H]), _sigmoid(pre[3 * H:])
        c = f * c + i * g
        h = o * np.tanh(c)
        for k in range(K):
            z = params[f"policy.head{k}.W"] @ h + params[f"policy.head{k}.b"]
            U[t, k] = 1 if z[1] > z[0] else 0
        selected = [k for k in range(K) if U[t, k]]
        if selected:
            alphas = _softmax(params["recog.fusion"][selected])
            fused = np.zeros(n_classes)
            for a, k in zip(alphas, selected):
                hidden = np.tanh(params[f"recog.sub{k}.W1"] @ recog_views[k][t]
                                 + params[f"recog.sub{k}.b1"])
                fused += a * (params[f"recog.sub{k}.W2"] @ hidden + params[f"recog.sub{k}.b2"])
            active.append(fused)
    if not active:
        return U, np.full(n_classes, 1.0 / n_classes)
    return U, _softmax(np.mean(active, axis=0))


def _close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def check_eval(params, eval_data, modalities, eval_segments, report, program):
    """The report against the reference decisions on every evaluated video.

    ``program`` holds the program's own ``(U, probabilities)`` per video,
    from ``forward_video`` on the same clips.
    """
    errors = []
    K = len(modalities)
    n = len(eval_data.videos)
    correct = 0
    selected = np.zeros(K, dtype=np.int64)
    tp, fp, fn = np.zeros(K), np.zeros(K), np.zeros(K)
    compute = 0.0
    for i, video in enumerate(eval_data.videos):
        idx = uniform_indices(video.n_segments, eval_segments)
        U, probs = reference_forward(
            params, [v[idx] for v in video.policy_views], [v[idx] for v in video.recog_views])
        prog_U, prog_probs = program[i]
        if not np.array_equal(U, prog_U):
            errors.append(f"video {i}: program decisions differ from the reference")
        if int(np.argmax(probs)) != int(np.argmax(prog_probs)):
            errors.append(f"video {i}: program predicts {int(np.argmax(prog_probs))}, "
                          f"the reference {int(np.argmax(probs))}")
        correct += int(np.argmax(probs)) == video.label
        selected += U.sum(axis=0)
        picked, truth = U.astype(bool), video.mask[idx]
        tp += (picked & truth).sum(axis=0)
        fp += (picked & ~truth).sum(axis=0)
        fn += (~picked & truth).sum(axis=0)
        # segments x sum of policy costs, plus selected cells x recognition cost
        compute += len(idx) * sum(m.policy_cost for m in modalities)
        compute += sum(int(U[:, k].sum()) * modalities[k].recog_cost for k in range(K))
        if len(errors) > 5:
            return errors
    if report.top1 != correct / n:
        errors.append(f"report top-1 {report.top1} != {correct}/{n} from the decisions")
    if list(report.selected_counts) != [int(s) for s in selected]:
        errors.append(f"report selected counts {report.selected_counts} != {selected.tolist()}")
    if report.executions != int(selected.sum()):
        errors.append(f"report executions {report.executions} != {int(selected.sum())} selected cells")
    if not _close(report.mean_compute, compute / n):
        errors.append(f"report mean compute {report.mean_compute} != {compute / n}")
    precision = [tp[k] / (tp[k] + fp[k]) if tp[k] + fp[k] else 0.0 for k in range(K)]
    recall = [tp[k] / (tp[k] + fn[k]) if tp[k] + fn[k] else 0.0 for k in range(K)]
    f1 = [2 * p * r / (p + r) if p + r else 0.0 for p, r in zip(precision, recall)]
    for name, got, want in (("precision", report.precision, precision),
                            ("recall", report.recall, recall), ("f1", report.f1, f1)):
        if got is None or not all(_close(a, b) for a, b in zip(got, want)):
            errors.append(f"report {name} {got} != {want} from the decisions")
    return errors


def check_quality(report, n_classes, margin, expensive):
    errors = []
    if not report.top1 >= 1.0 / n_classes + margin:
        errors.append(f"top-1 {report.top1} does not beat chance 1/{n_classes} by {margin}")
    rate = report.selection_rates[expensive]
    if not 0.0 < rate < 1.0:
        errors.append(f"expensive modality selection rate {rate} is not strictly inside (0, 1)")
    return errors
