"""Config parsing and the command-line surface, including every exit code."""

import struct

import numpy as np
import pytest

from modgate import autodiff as ad
from modgate.checkpoint import CHECKPOINT_MAGIC, load_checkpoint, save_checkpoint
from modgate.cli import main
from modgate.config import build_settings, default_config_text, parse_config
from modgate.datagen import DATASET_MAGIC, GenSpec, load_dataset
from modgate.errors import ConfigError
from modgate.modality import default_modalities
from modgate.model import ModelConfig
from modgate.objective import CostModel
from modgate.training import TrainConfig

QUICK = "warmup_epochs = 1\nalternate_epochs = 2\nfinetune_epochs = 1\nn_videos = 45\n"


class TestConfigText:
    def test_defaults(self):
        s = build_settings("", seed_override=5)
        assert s.seed == 5
        assert [m.name for m in s.modalities] == ["hi", "lo"]
        assert s.cost.lams == [0.04, 0.018]
        assert s.informative_probs == [0.4, 0.6]
        assert s.gen.n_videos == 200
        assert s.train.schedule.tau0 == 5.0
        assert s.model.feature_width == 128
        assert not s.eval_stochastic

    def test_override_flows_everywhere(self):
        s = build_settings(
            "seed = 9\nnoise_sigma = 0.2\nmodality.0.recog_dim = 30\n"
            "modality.1.lam = 0.5\ntau0 = 2.0\neval_stochastic = true\n"
        )
        assert s.seed == 9
        assert s.gen.noise_sigma == 0.2
        assert s.modalities[0].recog_dim == 30
        assert s.gen.modalities[0].recog_dim == 30
        assert s.cost.lams == [0.04, 0.5]
        assert s.train.schedule.tau0 == 2.0
        assert s.eval_stochastic

    def test_seed_flag_beats_config(self):
        assert build_settings("seed = 2", seed_override=8).seed == 8

    def test_missing_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            build_settings("n_videos = 10")

    def test_comments_and_blank_lines(self):
        s = build_settings("# full line comment\n\nseed = 4  # trailing\n")
        assert s.seed == 4

    def test_unknown_key_names_the_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("seed = 1\n\nnot_a_key = 2\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("seed 1\n")
        with pytest.raises(ConfigError):
            parse_config("seed =\n")

    def test_bad_value_type_rejected(self):
        with pytest.raises(ConfigError, match="integer"):
            build_settings("seed = 1\nn_videos = many")
        with pytest.raises(ConfigError, match="boolean"):
            build_settings("seed = 1\nno_lstm = maybe")

    def test_modality_index_out_of_range(self):
        with pytest.raises(ConfigError, match="out of range"):
            build_settings("seed = 1\nmodality.2.lam = 0.1")

    def test_unknown_modality_field(self):
        with pytest.raises(ConfigError, match="modality field"):
            parse_config("modality.0.flops = 3\n")

    def test_third_modality_gets_generic_defaults(self):
        s = build_settings("seed = 1\nmodality.count = 3\nmodality.2.recog_dim = 12\n")
        assert len(s.modalities) == 3
        assert s.modalities[2].recog_dim == 12
        assert len(s.cost.lams) == 3
        assert len(s.informative_probs) == 3

    def test_default_text_round_trips(self):
        s = build_settings(default_config_text() + "seed = 6\n")
        base = build_settings("", seed_override=6)
        assert s.gen == base.gen
        assert s.train == base.train
        assert s.cost.lams == base.cost.lams
        assert s.model == base.model
        assert s.cost == base.cost
        assert s.cost.gamma == base.cost.gamma
        assert s.eval_stochastic == base.eval_stochastic
        assert s.modalities == base.modalities
        # and every default is the dataclass default
        assert base.gen == GenSpec(seed=6)
        assert base.model == ModelConfig()
        assert base.train == TrainConfig(seed=6)
        assert base.cost == CostModel()
        assert base.modalities == default_modalities()
        assert base.eval_stochastic is False


class TestCliGenData:
    def test_writes_magic_and_summary(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\nn_videos = 8\n")
        out = tmp_path / "d.bin"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_bytes().startswith(DATASET_MAGIC)
        assert "8 videos" in capsys.readouterr().out
        data = load_dataset(str(out))
        assert len(data.videos) == 8

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        for out in (a, b):
            assert main(["gen-data", "--seed", "5", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_changes_content(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        main(["gen-data", "--seed", "5", "--out", str(a)])
        main(["gen-data", "--seed", "6", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_missing_out_is_usage_error(self):
        assert main(["gen-data", "--seed", "1"]) == 2

    def test_missing_seed_is_config_error(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path / "d.bin")]) == 2


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """A generated dataset plus one trained run, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text("seed = 3\n" + QUICK)
    data = root / "d.bin"
    assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    prefix = root / "run"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(prefix)]) == 0
    return root, cfg, data, prefix


class TestCliTrain:
    def test_artifacts(self, cli_workspace):
        root, cfg, data, prefix = cli_workspace
        csv = (str(prefix) + ".csv")
        lines = open(csv).read().splitlines()
        assert lines[0].startswith("epoch,phase,tau")
        assert len(lines) == 1 + 4  # header + one row per epoch
        for suffix in (".warmup", ".alternate", ".final"):
            blob = open(str(prefix) + suffix, "rb").read()
            assert blob.startswith(CHECKPOINT_MAGIC)

    def test_rerun_byte_identical(self, cli_workspace, tmp_path):
        root, cfg, data, prefix = cli_workspace
        again = tmp_path / "again"
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(again)]) == 0
        assert open(str(prefix) + ".csv").read() == open(str(again) + ".csv").read()
        assert (open(str(prefix) + ".final", "rb").read()
                == open(str(again) + ".final", "rb").read())

    def test_does_not_touch_the_dataset(self, cli_workspace, tmp_path):
        root, cfg, data, prefix = cli_workspace
        before = data.read_bytes()
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "t")]) == 0
        assert data.read_bytes() == before

    def test_missing_data_file(self, cli_workspace, tmp_path):
        root, cfg, data, prefix = cli_workspace
        code = main(["train", "--config", str(cfg), "--data",
                     str(tmp_path / "absent.bin"), "--out", str(tmp_path / "x")])
        assert code == 3

    def test_truncated_dataset(self, cli_workspace, tmp_path):
        root, cfg, data, prefix = cli_workspace
        clipped = tmp_path / "clipped.bin"
        clipped.write_bytes(data.read_bytes()[:100])
        assert main(["train", "--config", str(cfg), "--data", str(clipped),
                     "--out", str(tmp_path / "x")]) == 3

    def test_header_wider_than_file_is_format_error(self, cli_workspace, tmp_path):
        # 44 bytes whose header declares one view 2**32 - 1 floats wide
        root, cfg, data, prefix = cli_workspace
        blob = DATASET_MAGIC + struct.pack("<5I", 1, 1, 1, 1, 2)
        blob += struct.pack("<2I", 2**32 - 1, 1)
        blob += bytes(44 - len(blob))
        bad = tmp_path / "wide.bin"
        bad.write_bytes(blob)
        assert main(["train", "--config", str(cfg), "--data", str(bad),
                     "--out", str(tmp_path / "x")]) == 3

    def test_config_width_mismatch(self, cli_workspace, tmp_path):
        root, cfg, data, prefix = cli_workspace
        other = tmp_path / "wide.cfg"
        other.write_text("seed = 3\nmodality.0.recog_dim = 40\n" + QUICK)
        assert main(["train", "--config", str(other), "--data", str(data),
                     "--out", str(tmp_path / "x")]) == 4


class TestCliEval:
    def test_prints_metrics_and_writes_csv(self, cli_workspace, tmp_path, capsys):
        root, cfg, data, prefix = cli_workspace
        out = tmp_path / "metrics.csv"
        code = main(["eval", "--checkpoint", str(prefix) + ".final",
                     "--data", str(data), "--seed", "3", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "top1" in stdout and "selection_rate" in stdout
        assert "f1[" in stdout  # generated data carries masks
        lines = out.read_text().splitlines()
        assert lines[0] == "metric,modality,value"

    def test_config_supplies_real_names_and_costs(self, cli_workspace, capsys):
        root, cfg, data, prefix = cli_workspace
        code = main(["eval", "--config", str(cfg),
                     "--checkpoint", str(prefix) + ".final", "--data", str(data)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "selection_rate[hi]" in stdout

    def test_corrupt_checkpoint(self, cli_workspace, tmp_path):
        root, cfg, data, prefix = cli_workspace
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"WRONGMAGIC" + open(str(prefix) + ".final", "rb").read()[10:])
        assert main(["eval", "--checkpoint", str(bad), "--data", str(data),
                     "--seed", "3"]) == 3

    def test_checkpoint_lacking_parameters_is_mismatch(self, cli_workspace, tmp_path, capsys):
        root, cfg, data, prefix = cli_workspace
        partial = tmp_path / "partial.ckpt"
        save_checkpoint({"recog.sub0.W1": np.zeros((4, 24))}, str(partial))
        assert main(["eval", "--checkpoint", str(partial), "--data", str(data),
                     "--seed", "3"]) == 4
        assert "policy.extractor.mod0.W" in capsys.readouterr().err

    def test_zero_width_parameter_is_mismatch(self, cli_workspace, tmp_path, capsys):
        root, cfg, data, prefix = cli_workspace
        state = load_checkpoint(str(prefix) + ".final")
        state["recog.sub0.W1"] = np.zeros((0, 24))
        empty = tmp_path / "empty.ckpt"
        save_checkpoint(state, str(empty))
        assert main(["eval", "--checkpoint", str(empty), "--data", str(data),
                     "--seed", "3"]) == 4
        assert "recog.sub0.W1" in capsys.readouterr().err

    def test_huge_parameter_is_format_error(self, cli_workspace, tmp_path):
        root, cfg, data, prefix = cli_workspace
        name = b"recog.sub0.W1"
        huge = tmp_path / "huge.ckpt"
        huge.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(name)) + name
                         + struct.pack("<3I", 2, 2**32 - 1, 2**32 - 1) + bytes(16))
        assert main(["eval", "--checkpoint", str(huge), "--data", str(data),
                     "--seed", "3"]) == 3

    def test_wrong_world_mismatch(self, cli_workspace, tmp_path):
        root, cfg, data, prefix = cli_workspace
        narrow_cfg = tmp_path / "narrow.cfg"
        narrow_cfg.write_text("seed = 3\nn_videos = 4\nmodality.0.recog_dim = 12\n")
        other = tmp_path / "other.bin"
        assert main(["gen-data", "--config", str(narrow_cfg), "--out", str(other)]) == 0
        assert main(["eval", "--checkpoint", str(prefix) + ".final",
                     "--data", str(other), "--seed", "3"]) == 4


class TestCliCompare:
    def test_five_rows(self, cli_workspace, tmp_path, capsys):
        root, cfg, data, prefix = cli_workspace
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        for name in ("adaptive", "weighted-fusion", "unimodal-hi",
                     "unimodal-lo", "random-policy"):
            assert name in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "metric,modality,value,baseline"
        assert len(lines) == 1 + 5 * 4

    def test_explicit_eval_data(self, cli_workspace, tmp_path, capsys):
        root, cfg, data, prefix = cli_workspace
        held = tmp_path / "held.bin"
        assert main(["gen-data", "--config", str(cfg), "--out", str(held)]) == 0
        code = main(["compare", "--config", str(cfg), "--data", str(data),
                     "--eval-data", str(held)])
        assert code == 0
        assert "adaptive" in capsys.readouterr().out


class TestCliVerify:
    def test_all_suites_pass(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        for name in ("grad_check", "gumbel_max_marginal", "straight_through",
                     "temperature_limits", "simplex"):
            assert f"PASS {name}" in out

    def test_corrupted_backward_rule_fails_by_name(self, capsys, monkeypatch):
        orig = ad.BACKWARD_RULES["softmax"]

        def crooked(*args, **kwargs):
            return tuple(g * 1.01 if g is not None else None
                         for g in orig(*args, **kwargs))

        monkeypatch.setitem(ad.BACKWARD_RULES, "softmax", crooked)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL grad_check" in out
        assert "softmax" in out


class TestCliUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
        assert main(["train", "--help"]) == 0
