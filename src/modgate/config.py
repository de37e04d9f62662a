"""Flat key=value run configuration.

One ``key = value`` pair per line, ``#`` starts a comment, unknown keys are
hard errors so typos never silently fall back to defaults.  Every key has a
documented default except ``seed``, which must come from the file or from the
command line: runs without an explicit seed are not reproducible runs.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, fields
from typing import get_type_hints

from .datagen import GenSpec
from .errors import ConfigError
from .gumbel import TemperatureSchedule
from .modality import ModalitySpec, default_modalities
from .model import ModelConfig
from .objective import CostModel
from .training import TrainConfig


def _parse_bool(raw):
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_int(raw):
    try:
        return int(raw, 0)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {raw!r}") from exc


def _parse_float(raw):
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {raw!r}") from exc


def _parse_str(raw):
    return raw.strip()


_PARSERS = {bool: _parse_bool, int: _parse_int, float: _parse_float, str: _parse_str}


def _field_keys(cls, skip=()):
    """key -> (converter, default) for each scalar field of a config dataclass."""
    hints = get_type_hints(cls)
    return {
        f.name: (_PARSERS[hints[f.name]], f.default)
        for f in fields(cls)
        if hints[f.name] in _PARSERS and f.name not in skip
    }


# keys that set the dataclass field of the same name
_GEN_KEYS = _field_keys(GenSpec, skip=("seed",))
_MODEL_KEYS = _field_keys(ModelConfig)
_TRAIN_KEYS = _field_keys(TrainConfig, skip=("seed",))
_SCHEDULE_KEYS = _field_keys(TemperatureSchedule, skip=("anneal_factor",))
_COST_KEYS = _field_keys(CostModel, skip=("train_segments",))  # set from TrainConfig

# per-modality overrides: modality.<k>.<field>
MODALITY_FIELDS = {name: conv for name, (conv, _) in _field_keys(ModalitySpec).items()}
MODALITY_FIELDS["informative_prob"] = _parse_float

_MODALITY_KEY = re.compile(r"modality\.(\d+)\.([a-z_]+)$")

# the stock two-stream setup; extra modalities start from the generic row
_MODALITY_DEFAULTS = [
    dict(asdict(spec), informative_prob=p)
    for spec, p in zip(default_modalities(), GenSpec().informative_probs)
]
_MODALITY_GENERIC = dict(
    name="", recog_dim=16, policy_dim=6, lam=0.02,
    recog_cost=0.45, policy_cost=0.076, informative_prob=0.5,
)

# key -> (converter, default)
SCHEMA = {
    "seed": (_parse_int, None),
    **_GEN_KEYS,
    "modality.count": (_parse_int, len(_MODALITY_DEFAULTS)),
    **_MODEL_KEYS,
    **_TRAIN_KEYS,
    "policy_beta1": (_parse_float, TrainConfig.policy_betas[0]),
    "policy_beta2": (_parse_float, TrainConfig.policy_betas[1]),
    **_SCHEDULE_KEYS,
    "tau_anneal": (_parse_float, TemperatureSchedule.anneal_factor),
    **_COST_KEYS,
    "eval_stochastic": (_parse_bool, False),
}


def parse_config(text):
    """Raw key -> string map; rejects malformed lines and unknown keys."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line.strip()!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        raw = raw.strip()
        if not raw:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        m = _MODALITY_KEY.match(key)
        if m is None and key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if m is not None and m.group(2) not in MODALITY_FIELDS:
            raise ConfigError(f"line {lineno}: unknown modality field {m.group(2)!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = raw
    return values


@dataclass
class Settings:
    """Everything a run needs, typed and validated."""

    seed: int
    modalities: list
    informative_probs: list
    gen: GenSpec
    model: ModelConfig
    train: TrainConfig
    cost: CostModel
    eval_stochastic: bool


def build_settings(text="", seed_override=None):
    """Parse config text and assemble the typed bundle.

    ``seed_override`` (the command line's --seed) wins over the file; a run
    with neither is rejected.
    """
    raw = parse_config(text)

    def get(key):
        conv, default = SCHEMA[key]
        if key in raw:
            try:
                return conv(raw[key])
            except ConfigError as exc:
                raise ConfigError(f"key {key!r}: {exc}") from exc
        return default

    seed = get("seed")
    if seed_override is not None:
        seed = int(seed_override)
    if seed is None:
        raise ConfigError("a seed is required: set seed= in the config or pass --seed")

    count = get("modality.count")
    if count < 1:
        raise ConfigError(f"modality.count must be positive, got {count}")
    rows = []
    for k in range(count):
        base = dict(_MODALITY_DEFAULTS[k]) if k < len(_MODALITY_DEFAULTS) else dict(
            _MODALITY_GENERIC, name=f"mod{k}"
        )
        rows.append(base)
    for key, value in raw.items():
        m = _MODALITY_KEY.match(key)
        if m is None:
            continue
        k = int(m.group(1))
        if k >= count:
            raise ConfigError(
                f"key {key!r}: modality index {k} out of range (count is {count})"
            )
        field = m.group(2)
        try:
            rows[k][field] = MODALITY_FIELDS[field](value)
        except ConfigError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from exc

    informative_probs = [f.pop("informative_prob") for f in rows]
    modalities = [ModalitySpec(**f) for f in rows]

    def pick(keys):
        return {key: get(key) for key in keys}

    gen = GenSpec(modalities=modalities, informative_probs=informative_probs, seed=seed,
                  **pick(_GEN_KEYS))
    model = ModelConfig(**pick(_MODEL_KEYS))
    schedule = TemperatureSchedule(anneal_factor=get("tau_anneal"), **pick(_SCHEDULE_KEYS))
    train = TrainConfig(policy_betas=(get("policy_beta1"), get("policy_beta2")),
                        schedule=schedule, seed=seed, **pick(_TRAIN_KEYS))
    cost = CostModel(lams=[m.lam for m in modalities], train_segments=train.train_segments,
                     **pick(_COST_KEYS))
    return Settings(
        seed=seed,
        modalities=modalities,
        informative_probs=informative_probs,
        gen=gen,
        model=model,
        train=train,
        cost=cost,
        eval_stochastic=get("eval_stochastic"),
    )


def default_config_text():
    """A commented config file listing every key at its default."""
    lines = ["# run configuration: key = value, '#' starts a comment", "# seed = <int>  (required here or via --seed)"]
    for key, (conv, default) in SCHEMA.items():
        if key == "seed":
            continue
        lines.append(f"{key} = {default}")
    lines.append("# per-modality overrides: modality.<k>.<field>, e.g.")
    for field in MODALITY_FIELDS:
        lines.append(f"#   modality.0.{field} = ...")
    return "\n".join(lines) + "\n"
