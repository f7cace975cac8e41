"""Run configuration: INI files mapped onto the component configs.

One file drives a whole run (generation, training, decoding, evaluation).
Sections and keys are strict: anything unrecognized is an error, so typos
fail loudly instead of silently using a default. Model input widths are not
configured here; ``build_model`` reads them from the data.

``describe(cfg)`` is the one description of a configuration: the keys a file
may set, under the file's own names. Manifests record it, and ``render``
formats it as the INI file that reproduces the run.

Threshold lists accept either an inclusive ``start:step:stop`` range
(``0.5:0.05:0.95``) or an explicit comma list (``0.5, 0.75``).

Defaults live only in the dataclasses: the default file is
``render(RunConfig())``, and loading with no path parses nothing.
"""

from __future__ import annotations

import configparser
import dataclasses
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tapgkit.boundary_net import BoundaryNetConfig
from tapgkit.data.features import VideoFeatureSequence
from tapgkit.data.synthetic import SyntheticConfig
from tapgkit.errors import ConfigError
from tapgkit.evaluation import EvalConfig
from tapgkit.inference import (
    HardSuppressionConfig,
    SoftSuppressionConfig,
    suppression_preset,
)
from tapgkit.model import ProposalModel
from tapgkit.representation import RepresentationConfig
from tapgkit.training import TrainConfig


@dataclass
class BoundaryNetSettings:
    """Width knobs for the proposal network; input extents come from data."""
    max_duration: int | None = None
    num_samples: int = 16
    trunk_hidden: int = 64
    trunk_out: int = 32
    boundary_hidden: int = 64
    proposal_conv3d_out: int = 128
    proposal_conv2d_hidden: int = 32

    def build(self, feature_dim: int, num_snippets: int) -> BoundaryNetConfig:
        cfg = BoundaryNetConfig(feature_dim=feature_dim, num_snippets=num_snippets,
                                **dataclasses.asdict(self))
        cfg.validate()
        return cfg


@dataclass
class RunConfig:
    data_root: Path = Path("corpus")
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)
    representation: RepresentationConfig = field(default_factory=RepresentationConfig)
    boundary: BoundaryNetSettings = field(default_factory=BoundaryNetSettings)
    training: TrainConfig = field(default_factory=TrainConfig)
    suppression: SoftSuppressionConfig | HardSuppressionConfig = field(
        default_factory=lambda: suppression_preset("anet-tapg-snms"))
    evaluation: EvalConfig = field(default_factory=EvalConfig)


class _Section:
    """One INI section: values parsed by dataclass field type, consumed keys tracked."""

    def __init__(self, name: str, items: dict[str, str]):
        self.name = name
        self._items = items
        self._seen: set[str] = set()

    def get(self, key: str) -> str:
        """The stripped value of ``key``, or "" when it is absent or blank."""
        self._seen.add(key)
        return self._items.get(key, "").strip()

    def read(self, base, skip=()):
        """``base`` with every field this section sets replaced; blank keeps the default."""
        hints = typing.get_type_hints(type(base))
        changes = {}
        for f in dataclasses.fields(base):
            if f.name not in skip and (raw := self.get(f.name)):
                changes[f.name] = self._parse(f.name, raw, hints[f.name])
        return dataclasses.replace(base, **changes)

    def _parse(self, key: str, raw: str, kind):
        context = f"[{self.name}] {key}"
        if kind == tuple[float, ...]:
            return parse_threshold_list(raw, context)
        if kind == tuple[int, ...]:
            return _int_list(raw, context)
        if kind is str:
            return raw
        if kind is bool:
            lowered = raw.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ConfigError(f"{context} = {raw!r} is not a boolean")
        try:
            value = float(raw) if kind is float else int(raw)
        except ValueError:
            noun = "a number" if kind is float else "an integer"
            raise ConfigError(f"{context} = {raw!r} is not {noun}") from None
        if not np.isfinite(value):
            raise ConfigError(f"{context} = {raw!r} is not a finite number")
        return value

    def check_consumed(self) -> None:
        unknown = sorted(set(self._items) - self._seen)
        if unknown:
            raise ConfigError(f"[{self.name}] unknown keys: {unknown}")


def parse_threshold_list(text: str, context: str) -> tuple[float, ...]:
    text = text.strip()
    try:
        if ":" in text:
            start_s, step_s, stop_s = text.split(":")
            start, step, stop = float(start_s), float(step_s), float(stop_s)
            if step <= 0 or stop < start:
                raise ValueError("range must ascend")
            count = int(round((stop - start) / step)) + 1
            values = tuple(np.round(start + step * np.arange(count), 10))
            if values and values[-1] > stop + 1e-9:
                values = values[:-1]
            return values
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as err:
        raise ConfigError(f"{context}: bad threshold list {text!r} ({err})") from None


def _int_list(text: str, context: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"{context}: bad integer list {text!r}") from None


# INI section -> (RunConfig field, fields the file may not set). Sections are
# read in this order, after [data]; the model's input widths come from the data.
_SECTIONS = {
    "synthetic": ("synthetic", ()),
    "representation": ("representation", ("env_dim", "actor_dim", "object_dim")),
    "boundary_net": ("boundary", ()),
    "training": ("training", ()),
    "inference": ("suppression", ()),
    "evaluation": ("evaluation", ()),
}


def build_model(cfg: RunConfig, features: dict[str, VideoFeatureSequence]) -> ProposalModel:
    """A model initialised from ``cfg.training.seed`` for this corpus: the stream
    widths and the snippet count are the first video's (by id), the rest is ``cfg``."""
    first = features[min(features)]
    d_e, d_a, d_o = first.dims()
    rep_cfg = dataclasses.replace(cfg.representation, env_dim=d_e,
                                  actor_dim=d_a, object_dim=d_o)
    net_cfg = cfg.boundary.build(rep_cfg.feature_dim, first.num_snippets)
    return ProposalModel(np.random.default_rng(cfg.training.seed), rep_cfg, net_cfg)


# [inference] mode -> the preset whose parameters it starts from
_MODES = {"soft": "anet-tad-snms", "hard": "thumos-tad-nms"}


def _read_suppression(sec: _Section, default):
    """A preset (only ``max_keep`` may be overridden) or explicit soft/hard parameters."""
    mode = sec.get("mode")
    if mode in _MODES:
        return sec.read(suppression_preset(_MODES[mode]))
    if mode:
        raise ConfigError(f"[inference] mode must be 'soft' or 'hard', got {mode!r}")
    preset = sec.get("preset")
    base = suppression_preset(preset) if preset else default
    return sec.read(base, skip=[f.name for f in dataclasses.fields(base)
                                if f.name != "max_keep"])


def load_run_config(path=None) -> RunConfig:
    """Parse an INI file into a RunConfig; with no path, return the defaults."""
    if path is None:
        return RunConfig()
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text ({err})") from err
    except configparser.Error as err:
        raise ConfigError(f"{path}: {err}") from err

    unknown_sections = sorted(set(parser.sections()) - {"data", *_SECTIONS})
    if unknown_sections:
        raise ConfigError(f"unknown config sections: {unknown_sections}")

    def section(name: str) -> _Section:
        return _Section(name, dict(parser[name]) if parser.has_section(name) else {})

    cfg = RunConfig()
    data = section("data")
    cfg.data_root = Path(data.get("root") or cfg.data_root)
    data.check_consumed()
    for name, (attr, skip) in _SECTIONS.items():
        sec = section(name)
        if name == "inference":
            value = _read_suppression(sec, cfg.suppression)
        else:
            value = sec.read(getattr(cfg, attr), skip)
        # the other sections are validated where they are used, after any
        # command-line override (--epochs, --seed) has been applied
        if name in ("inference", "evaluation"):
            value.validate()
        sec.check_consumed()
        setattr(cfg, attr, value)
    return cfg


def describe(cfg: RunConfig) -> dict:
    """Every key an INI file may set, by section, under the file's own names:
    ``[inference]`` gives its soft/hard choice as ``mode``, and the stream
    widths, which come from the data, are left out."""
    payload = {"data": {"root": str(cfg.data_root)}}
    for name, (attr, skip) in _SECTIONS.items():
        values = dataclasses.asdict(getattr(cfg, attr))
        payload[name] = {key: value for key, value in values.items() if key not in skip}
    mode = "soft" if isinstance(cfg.suppression, SoftSuppressionConfig) else "hard"
    payload["inference"] = {"mode": mode, **payload["inference"]}
    return payload


def _ini_value(value) -> str:
    if value is None:  # a blank value keeps the default
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (tuple, list)):
        return ", ".join(map(str, value))
    return str(value)


def render(cfg: RunConfig | dict) -> str:
    """``describe(cfg)`` as INI text; ``cfg`` may also be that description
    itself, such as a manifest's ``config`` block read back from JSON."""
    blocks = []
    for name, values in (describe(cfg) if isinstance(cfg, RunConfig) else cfg).items():
        lines = [f"[{name}]"] + [f"{key} = {_ini_value(value)}".rstrip()
                                 for key, value in values.items()]
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)
