"""Tests of the benchmark's own parts: span arithmetic, the reference forward
pass, the tracer's patching, and the metrics a run prints.

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from perfbench.tests.conftest import ROOT
from modgate import datagen, model as model_mod, policy, training
from modgate.modality import ModalitySpec
from modgate.model import Model, ModelConfig
from perfbench import checks, pipeline, tracing


def test_self_time_subtracts_direct_children_only():
    #  root 0..10
    #    a  1..4
    #      b  2..3
    #    c  5..9
    spans = [
        ["root", None, 0.0, 10.0, -1],
        ["a", None, 1.0, 4.0, 0],
        ["b", None, 2.0, 3.0, 1],
        ["c", None, 5.0, 9.0, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_metrics_sum_self_time_per_name_and_phase():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["model.forward_video", "eval", 0.0, 5.0, -1],
        ["recognition.subnetwork", "eval", 1.0, 2.0, 0],
        ["recognition.subnetwork", "eval", 2.0, 4.0, 0],
        ["model.forward_video", "warmup", 10.0, 11.0, -1],
    ]
    tracer.counts[("model.cells", "eval")] = 4
    got = tracer.metrics()
    assert got["model.forward_video_s.eval"] == (2.0, "s")
    assert got["model.forward_video_s.warmup"] == (1.0, "s")
    assert got["recognition.subnetwork_s.eval"] == (3.0, "s")
    assert got["recognition.executions.eval"] == (2, "count")
    assert got["recognition.executed_share.eval"] == (0.5, "ratio")
    assert got["model.forward_video_calls.eval"] == (1, "count")


def test_step_seconds_sums_each_pieces_minimum_over_samples():
    rounds = [
        {"eval": [[1.0, 5.0, 2.0]], "load": [[0.4], [0.3]]},
        {"eval": [[3.0, 4.0, 2.5]], "load": [[0.2], [0.5]]},
    ]
    assert pipeline.step_seconds(rounds, "eval") == 1.0 + 4.0 + 2.0
    assert pipeline.step_seconds(rounds, "load") == 0.2
    with pytest.raises(ValueError):
        pipeline.step_seconds([{"eval": [[1.0]]}, {"eval": [[1.0, 2.0]]}], "eval")


def _small_model(seed=0):
    mods = [ModalitySpec("hi", recog_dim=6, policy_dim=3), ModalitySpec("lo", recog_dim=5, policy_dim=2)]
    config = ModelConfig(extractor_hidden=4, feature_width=5, lstm_hidden=3, recog_hidden=4)
    return Model(mods, 3, config, seed=seed)


def _video(model, T, seed):
    rng = np.random.default_rng(seed)
    return datagen.VideoExample(
        recog_views=[rng.standard_normal((T, m.recog_dim)) for m in model.modalities],
        policy_views=[rng.standard_normal((T, m.policy_dim)) for m in model.modalities],
        label=0,
        mask=None,
    )


def test_reference_with_zero_heads_skips_every_tie_and_predicts_uniform():
    model = _small_model()
    params = {name: p.values.copy() for name, p in model.parameters().items()}
    for name in params:
        if name.startswith("policy.head"):
            params[name][...] = 0.0
    video = _video(model, 7, seed=1)
    U, probs = checks.reference_forward(params, video.policy_views, video.recog_views)
    assert U.shape == (7, 2) and not U.any()
    assert np.array_equal(probs, np.full(3, 1.0 / 3.0))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reference_matches_the_program_on_a_random_model(seed):
    model = _small_model(seed)
    # push the heads apart so that both decisions occur
    model.policy.params["policy.head0.b"].values = np.array([0.0, 0.2])
    model.policy.params["policy.head1.b"].values = np.array([0.1, 0.0])
    params = {name: p.values for name, p in model.parameters().items()}
    video = _video(model, 9, seed=10 + seed)
    U, probs = checks.reference_forward(params, video.policy_views, video.recog_views)
    fw = model_mod.forward_video(model, video, mode=policy.EVAL_DETERMINISTIC)
    assert np.array_equal(U, fw.decisions.U)
    assert np.allclose(probs, fw.prediction.values, rtol=1e-12, atol=1e-15)


def test_dataset_file_size_matches_a_saved_file(tmp_path):
    spec = datagen.GenSpec(n_videos=3, segments=4, seed=5)
    data = datagen.generate(spec)
    path = tmp_path / "d.bin"
    datagen.save_dataset(data, str(path))
    size = checks.dataset_file_size(3, 4, data.recog_dims, data.policy_dims)
    assert os.path.getsize(path) == size


def test_install_restores_every_patched_name():
    originals = (model_mod.forward_video, training.forward_video, policy.PolicyNet.rollout,
                 training.MomentumSGD.step)
    tracer = tracing.Tracer()
    with tracer.install():
        assert training.forward_video is model_mod.forward_video
        assert training.forward_video is not originals[0]
        assert training.forward_video.__wrapped__ is originals[0]
    assert (model_mod.forward_video, training.forward_video, policy.PolicyNet.rollout,
            training.MomentumSGD.step) == originals


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_a_run_prints_every_metric_with_its_unit(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = spec["workloads"][0]["name"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = result["metrics"]
    assert set(printed) == {m["name"] for m in spec[section]}
    for metric in spec[section]:
        assert printed[metric["name"]]["unit"] == metric["unit"]
        assert isinstance(printed[metric["name"]]["value"], (int, float))
