"""Pipeline configuration: a line-oriented key=value file with sections.

The whole run is described by one file so experiment grids are reviewable
artifacts. Parsing is eager and total: every key is type-checked and every
semantic invariant validated before any command does work, and parse errors
carry the line and column of the offending entry. emit_config writes the
canonical form; parse(emit(parse(text))) equals parse(text).

The section dataclasses are the schema: each field is one key, and the
field's type picks the codec that reads and writes its value.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, get_type_hints

from .downstream import DERM_INPUTS, DownstreamConfig, DownstreamTrainConfig
from .errors import ConfigParseError, DermError, WeightOutOfRangeError
from .lifecycle import RETENTION_DAYS, AggregationHeuristic
from .numerics import float_text
from .synth import WorldConfig
from .towers import SlotSpec, TowerConfig, UpstreamModel, build_upstream_model
from .trainer import TrainConfig

UPSTREAM_MODELS = ("ctr", "cvr")
UPSTREAM_TASKS = {"ctr": "click", "cvr": "conversion"}
UPSTREAM_SOURCES = {"ctr": "ctr-upstream", "cvr": "cvr-upstream"}


@dataclass(frozen=True)
class PathsConfig:
    root: Path = Path("run")
    world_dir: Path | None = None
    snapshot_dir: Path | None = None
    embeddings_dir: Path | None = None
    state_dir: Path | None = None
    store_dir: Path | None = None
    report_dir: Path | None = None

    def resolved(self, name: str) -> Path:
        explicit = getattr(self, f"{name}_dir")
        return explicit if explicit is not None else self.root / name

    @property
    def world(self) -> Path:
        return self.resolved("world")

    @property
    def snapshots(self) -> Path:
        return self.resolved("snapshot")

    @property
    def embeddings(self) -> Path:
        return self.resolved("embeddings")

    @property
    def state(self) -> Path:
        return self.resolved("state")

    @property
    def store(self) -> Path:
        return self.resolved("store")

    @property
    def reports(self) -> Path:
        return self.resolved("report")


@dataclass(frozen=True)
class UpstreamSpec:
    task: str
    source: str
    train: TrainConfig
    batch_window_end: int = 14
    token_dim: int = 4
    num_tokens: int = 4
    num_layers: int = 2


@dataclass(frozen=True)
class LifecycleConfig:
    heuristic: AggregationHeuristic = AggregationHeuristic("ma", 0.8)
    retention_days: int = RETENTION_DAYS
    back_window: int = 14


@dataclass(frozen=True)
class ServeConfig:
    host: str = "127.0.0.1"
    port: int = 7431


@dataclass(frozen=True)
class DownstreamSection:
    task: str = "ctr"
    derm_inputs: tuple[str, ...] = tuple(DERM_INPUTS)
    projection_dim: int | None = 16
    num_experts: int = 4
    cross_layers: int = 2
    sequence_encoder: bool = True
    learning_rate: float = 0.1
    batch_size: int = 32
    epochs: int = 24
    seed: int = 0
    train_day_start: int = 8
    test_day: int = 18

    def model_config(self, derm_inputs: tuple[str, ...] | None = None) -> DownstreamConfig:
        return DownstreamConfig(
            task=self.task,
            derm_inputs=self.derm_inputs if derm_inputs is None else derm_inputs,
            projection_dim=self.projection_dim,
            num_experts=self.num_experts,
            cross_layers=self.cross_layers,
            sequence_encoder=self.sequence_encoder,
        )

    def train_config(self) -> DownstreamTrainConfig:
        return DownstreamTrainConfig(learning_rate=self.learning_rate,
                                     batch_size=self.batch_size,
                                     epochs=self.epochs, seed=self.seed)


@dataclass(frozen=True)
class ExperimentConfig:
    grid: str = "heuristics"
    task: str = "ctr"
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    heuristics: tuple[AggregationHeuristic, ...] = (
        AggregationHeuristic("acc"),
        AggregationHeuristic("ma", 0.2),
        AggregationHeuristic("ma", 0.5),
        AggregationHeuristic("ma", 0.8),
        AggregationHeuristic("ap"),
    )
    derm_inputs: tuple[str, ...] = tuple(DERM_INPUTS)


@dataclass(frozen=True)
class PipelineConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)
    upstream: dict[str, UpstreamSpec] = field(default_factory=dict)
    lifecycle: LifecycleConfig = field(default_factory=LifecycleConfig)
    serve: ServeConfig = field(default_factory=ServeConfig)
    downstream: DownstreamSection = field(default_factory=DownstreamSection)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)

    @property
    def upstream_end_day(self) -> int:
        """Last day upstream models train on; the test day stays unseen."""
        return self.downstream.test_day - 1

    def validate(self, locate: Callable[[str, str], str] | None = None) -> None:
        """Check every invariant; locate(section, key), when given, prefixes an
        error with where its key sits in the parsed text."""

        def fail(section: str, key: str, detail: str):
            where = locate(section, key) if locate else ""
            raise ConfigParseError(f"{where}[{section}] {key}: {detail}")

        def check(section: str, validate: Callable[[], None]):
            # each message of these validators starts with its key
            try:
                validate()
            except (ValueError, DermError) as e:
                key, _, detail = str(e).partition(" ")
                fail(section, key, detail)

        check("world", self.world.validate)
        for name, spec in self.upstream.items():
            section = f"upstream.{name}"
            check(section, spec.train.validate)
            if not (1 <= spec.batch_window_end <= self.upstream_end_day):
                fail(section, "batch_window_end",
                     f"{spec.batch_window_end} must lie in "
                     f"[1, {self.upstream_end_day}]")
            for key in ("token_dim", "num_tokens"):
                if getattr(spec, key) < 1:
                    fail(section, key, "must be >= 1")
            if not (1 <= spec.num_layers <= len(_USER_BLOCKS)):
                fail(section, "num_layers", f"{spec.num_layers} must lie in "
                     f"[1, {len(_USER_BLOCKS)}], one per block pair")
        lc = self.lifecycle
        lc.heuristic.validate()
        for key in ("retention_days", "back_window"):
            if getattr(lc, key) < 1:
                fail("lifecycle", key, "must be >= 1")
        ds = self.downstream
        check("downstream", ds.model_config().validate)
        if not (1 <= ds.train_day_start < ds.test_day):
            fail("downstream", "train_day_start", f"{ds.train_day_start} must "
                 f"lie in [1, test_day) = [1, {ds.test_day})")
        if ds.test_day > self.world.days:
            fail("downstream", "test_day", f"{ds.test_day} is past the last "
                 f"day of the world, {self.world.days}")
        if not ds.learning_rate > 0:
            fail("downstream", "learning_rate", "must be > 0")
        for key in ("batch_size", "epochs"):
            if getattr(ds, key) < 1:
                fail("downstream", key, "must be >= 1")
        if not (0 <= ds.seed < 2**64):
            fail("downstream", "seed", f"{ds.seed} must lie in [0, 2**64)")
        ex = self.experiment
        if ex.grid not in ("heuristics", "inputs"):
            fail("experiment", "grid", f"must be heuristics or inputs, got {ex.grid!r}")
        if ex.task not in UPSTREAM_MODELS:
            fail("experiment", "task", f"unknown task {ex.task!r}")
        seeds = ex.seeds
        if len(set(seeds)) < len(seeds) or not all(0 <= s < 2**64 for s in seeds):
            fail("experiment", "seeds", f"must be distinct, in [0, 2**64), got {seeds}")
        for h in ex.heuristics:
            h.validate()
        labels = [h.label for h in ex.heuristics]
        if len(set(labels)) != len(labels):
            fail("experiment", "heuristics",
                 f"labels must be distinct, got {', '.join(labels)}")
        for name in ex.derm_inputs:
            if name not in DERM_INPUTS:
                fail("experiment", "derm_inputs", f"unknown derm input {name!r}")
        # emit_config's text must parse back (an empty list, for one, does not)
        for section, keys, values in _sections(self):
            for key, codec in keys:
                text = codec.emit(values[key])
                try:
                    if text is not None:
                        codec.parse(text)
                except (ValueError, WeightOutOfRangeError) as e:
                    fail(section, key, f"emitted as {text!r}, which does not "
                         f"parse back: {e}")


def default_config() -> PipelineConfig:
    # conversion positives are several times sparser than clicks, so the
    # conversion model gets proportionally more passes over the window
    epochs_by_model = {"ctr": 3, "cvr": 8}
    upstream = {
        name: UpstreamSpec(
            task=UPSTREAM_TASKS[name],
            source=UPSTREAM_SOURCES[name],
            train=TrainConfig(
                learning_rate=0.1,
                momentum=0.0,
                batch_size=32,
                epochs=epochs_by_model[name],
                negatives_per_pair=15,
                seed=i,
                contrastive_weight=1.0,
                supervised_weights={UPSTREAM_TASKS[name]: 1.0},
            ),
        )
        for i, name in enumerate(UPSTREAM_MODELS)
    }
    return PipelineConfig(upstream=upstream)


# ---------------------------------------------------------------------------
# tower wiring


_USER_BLOCKS = (("mlp", "masknet"), ("attention", "mlp"), ("mlp", "mlp"))
_PIN_BLOCKS = (("masknet", "mlp"), ("mlp", "attention"), ("mlp", "mlp"))


def tower_configs(world: WorldConfig, spec: UpstreamSpec):
    user_cfg = TowerConfig(
        slots=(
            SlotSpec("profile", "dense", dim=world.latent_dim),
            SlotSpec("uid", "categorical", cardinality=world.num_users),
            SlotSpec("hist", "sequence", cardinality=world.num_pins),
        ),
        num_layers=spec.num_layers,
        blocks=_USER_BLOCKS[:spec.num_layers],
        token_dim=spec.token_dim,
        num_tokens=spec.num_tokens,
    )
    pin_cfg = TowerConfig(
        slots=(
            SlotSpec("attrs", "dense", dim=world.latent_dim),
            SlotSpec("pid", "categorical", cardinality=world.num_pins),
        ),
        num_layers=spec.num_layers,
        blocks=_PIN_BLOCKS[:spec.num_layers],
        token_dim=spec.token_dim,
        num_tokens=spec.num_tokens,
    )
    emb = user_cfg.output_dim
    inter_cfg = TowerConfig(
        slots=(
            SlotSpec("user_emb", "dense", dim=emb),
            SlotSpec("pin_emb", "dense", dim=emb),
            SlotSpec("u_dot_p", "dense", dim=1),
            SlotSpec("hour", "dense", dim=1),
        ),
        num_layers=1,
        blocks=(("mlp", "masknet"),),
        token_dim=spec.token_dim,
        num_tokens=spec.num_tokens,
    )
    return user_cfg, pin_cfg, inter_cfg


def build_model(world: WorldConfig, spec: UpstreamSpec) -> UpstreamModel:
    user_cfg, pin_cfg, inter_cfg = tower_configs(world, spec)
    return build_upstream_model(user_cfg, pin_cfg, inter_cfg,
                                tasks=(spec.task,), seed=spec.train.seed)


# ---------------------------------------------------------------------------
# the key table


@dataclass(frozen=True)
class _Codec:
    """Text to value (a ValueError carries the detail) and value to text;
    a None text leaves the key out of the emitted file."""

    parse: Callable[[str], object]
    emit: Callable[[object], str | None]


def _number(kind, expected: str):
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise ValueError(f"expected {expected}, got {text!r}") from None
        # float() reads nan and inf, which no key means
        if kind is float and not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {text!r}")
        return value
    return parse


_BOOLS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}


def _bool(text: str) -> bool:
    if text.lower() not in _BOOLS:
        raise ValueError(f"expected true or false, got {text!r}")
    return _BOOLS[text.lower()]


def _optional_int(text: str) -> int | None:
    if text.lower() == "none":
        return None
    return _number(int, "an integer or none")(text)


def _items(text: str) -> tuple[str, ...]:
    items = tuple(part.strip() for part in text.split(",") if part.strip())
    if not items:
        raise ValueError("expected a comma-separated list")
    return items


def _inputs(text: str) -> tuple[str, ...]:
    items = _items(text)
    return {("all",): tuple(DERM_INPUTS), ("none",): ()}.get(items, items)


def _upstream_task(text: str) -> str:
    if text not in UPSTREAM_TASKS.values():
        raise ValueError(f"expected click or conversion, got {text!r}")
    return text


_CODECS = {
    int: _Codec(_number(int, "an integer"), str),
    float: _Codec(_number(float, "a number"), float_text),
    bool: _Codec(_bool, lambda v: str(v).lower()),
    str: _Codec(str, str),
    Path: _Codec(Path, str),
    Path | None: _Codec(Path, lambda v: None if v is None else str(v)),
    int | None: _Codec(_optional_int,
                       lambda v: "none" if v is None else str(v)),
    AggregationHeuristic: _Codec(AggregationHeuristic.parse,
                                 lambda h: h.label),
    tuple[AggregationHeuristic, ...]: _Codec(
        lambda text: tuple(map(AggregationHeuristic.parse, _items(text))),
        lambda hs: ", ".join(h.label for h in hs)),
    tuple[int, ...]: _Codec(
        lambda text: tuple(map(_number(int, "integers"), _items(text))),
        lambda v: ", ".join(map(str, v))),
    tuple[str, ...]: _Codec(_inputs, lambda names: ", ".join(names) or "none"),
}


def _keys(cls, skip: tuple[str, ...] = ()) -> tuple[tuple[str, _Codec], ...]:
    hints = get_type_hints(cls)
    return tuple((f.name, _CODECS[hints[f.name]])
                 for f in fields(cls) if f.name not in skip)


# [upstream.*] flattens an UpstreamSpec: its task, the TrainConfig fields
# with one supervised_weight for that task, then the tower sizes
_TRAIN_KEYS = _keys(TrainConfig, skip=("supervised_weights",))
_UPSTREAM_KEYS = (("task", _Codec(_upstream_task, str)), *_TRAIN_KEYS,
                  ("supervised_weight", _CODECS[float]),
                  *_keys(UpstreamSpec, skip=("task", "source", "train")))


def _upstream_values(spec: UpstreamSpec) -> dict:
    flat = {**vars(spec), **vars(spec.train),
            "supervised_weight": spec.train.weight_for(spec.task)}
    return {key: flat[key] for key, _ in _UPSTREAM_KEYS}


def _upstream_spec(model: str, values: dict) -> UpstreamSpec:
    rest = dict(values)
    weight = rest.pop("supervised_weight")
    train = TrainConfig(**{key: rest.pop(key) for key, _ in _TRAIN_KEYS},
                        supervised_weights={rest["task"]: weight})
    return UpstreamSpec(source=UPSTREAM_SOURCES[model], train=train, **rest)


def _sections(cfg: PipelineConfig):
    """(section, keys, values of cfg) for every section, in file order."""
    for f in fields(PipelineConfig):
        part = getattr(cfg, f.name)
        if f.name == "upstream":
            for model in UPSTREAM_MODELS:
                yield (f"upstream.{model}", _UPSTREAM_KEYS,
                       _upstream_values(part[model]))
        else:
            keys = _keys(type(part))
            yield f.name, keys, {key: getattr(part, key) for key, _ in keys}


# ---------------------------------------------------------------------------
# parsing


_SECTION_RE = re.compile(r"^\s*\[(?P<name>[^\]]+)\]\s*$")
_OPTION_RE = re.compile(r"^(?P<key>[^\s=:#;][^=:]*?)\s*[=:]\s*(?P<value>.*)$")


class _Locator:
    """Maps (section, key) to 1-based (line, column) in the raw text."""

    def __init__(self, text: str):
        self.sections: dict[str, int] = {}
        self.options: dict[tuple[str, str], tuple[int, int]] = {}
        current = None
        for lineno, line in enumerate(text.splitlines(), start=1):
            m = _SECTION_RE.match(line)
            if m:
                current = m.group("name").strip()
                self.sections.setdefault(current, lineno)
                continue
            m = _OPTION_RE.match(line)
            if m and current is not None:
                key = m.group("key").strip().lower()
                col = line.index(m.group("value")) + 1 if m.group("value") \
                    else len(line) + 1
                self.options.setdefault((current, key), (lineno, col))

    def locate(self, section: str, key: str | None = None) -> str:
        """'line L, column C: ' of the key, else of its section's header;
        '' when the text has neither."""
        if key is not None and (section, key) in self.options:
            line, col = self.options[(section, key)]
            return f"line {line}, column {col}: "
        if section in self.sections:
            return f"line {self.sections[section]}, column 1: "
        return ""


def _read_section(name: str, raw: dict[str, str],
                  keys: tuple[tuple[str, _Codec], ...], defaults: dict,
                  locator: _Locator) -> dict:
    """The defaults, with every key present in raw read by its codec."""

    def fail(key: str, detail: str):
        raise ConfigParseError(f"{locator.locate(name, key)}[{name}] {key}: {detail}")

    values = dict(defaults)
    for key, codec in keys:
        if key in raw:
            try:
                values[key] = codec.parse(raw[key].strip())
            except (ValueError, WeightOutOfRangeError) as e:
                fail(key, str(e))
    unknown = sorted(raw.keys() - dict(keys).keys())
    if unknown:
        fail(unknown[0], "unknown key")
    return values


def parse_config(text: str) -> PipelineConfig:
    locator = _Locator(text)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as e:
        lineno = getattr(e, "lineno", None) or 1
        raise ConfigParseError(
            f"line {lineno}, column 1: {e.message.splitlines()[0]}"
        ) from e
    defaults = default_config()
    sections = list(_sections(defaults))
    known = {name for name, _, _ in sections}
    for section in parser.sections():
        if section not in known:
            raise ConfigParseError(
                f"{locator.locate(section)}unknown section [{section}]")
    values = {
        name: _read_section(name, dict(parser[name]) if parser.has_section(name)
                            else {}, keys, dflt, locator)
        for name, keys, dflt in sections
    }
    cfg = PipelineConfig(
        upstream={model: _upstream_spec(model, values[f"upstream.{model}"])
                  for model in UPSTREAM_MODELS},
        **{f.name: type(getattr(defaults, f.name))(**values[f.name])
           for f in fields(PipelineConfig) if f.name != "upstream"},
    )
    cfg.validate(locator.locate)
    return cfg


def load_config(path: Path) -> PipelineConfig:
    from .errors import MissingPrerequisiteError

    if not path.is_file():
        raise MissingPrerequisiteError(f"config file {path} does not exist")
    try:
        return parse_config(path.read_text())
    except ConfigParseError as e:
        raise ConfigParseError(f"{path}: {e}") from e


# ---------------------------------------------------------------------------
# emission


def emit_config(cfg: PipelineConfig) -> str:
    """Canonical text form; every key explicit, fixed order."""
    blocks = []
    for name, keys, values in _sections(cfg):
        lines = [f"[{name}]"]
        for key, codec in keys:
            text = codec.emit(values[key])
            if text is not None:
                lines.append(f"{key} = {text}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
