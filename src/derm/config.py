"""Pipeline configuration: a line-oriented key=value file with sections.

The whole run is described by one file so experiment grids are reviewable
artifacts. Parsing is eager and total: every key is type-checked and every
semantic invariant validated before any command does work, and parse errors
carry the line and column of the offending entry. emit_config writes the
canonical form; parse(emit(parse(text))) equals parse(text).

The section dataclasses are the schema: each field is one key, and the
field's type picks the codec that reads and writes its value. A field whose
type has no codec is a nested config, and its keys take its place in the
section: [upstream.*] holds an UpstreamSpec's TrainConfig keys, then its
tower sizes; [downstream] holds its DownstreamConfig keys, then its
DownstreamTrainConfig keys, then its own. DownstreamConfig's expert_hidden,
expert_out and seq_dim are fixed sizes that no key sets.
"""

from __future__ import annotations

import configparser
import functools
import math
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, get_type_hints

from .downstream import DERM_INPUTS, TASK_LABELS, DownstreamConfig, DownstreamTrainConfig
from .errors import ConfigParseError, DermError, WeightOutOfRangeError
from .lifecycle import RETENTION_DAYS, AggregationHeuristic
from .numerics import float_text
from .synth import WorldConfig
from .towers import SlotSpec, TowerConfig, UpstreamModel, build_upstream_model
from .trainer import TrainConfig

UPSTREAM_MODELS = ("ctr", "cvr")
UPSTREAM_SOURCES = {"ctr": "ctr-upstream", "cvr": "cvr-upstream"}


def _under_root(name: str) -> property:
    """The path its {name}_dir key sets, else root/name."""
    return property(lambda paths: getattr(paths, f"{name}_dir") or paths.root / name)


@dataclass(frozen=True)
class PathsConfig:
    root: Path = Path("run")
    world_dir: Path | None = None
    snapshot_dir: Path | None = None
    embeddings_dir: Path | None = None
    state_dir: Path | None = None
    store_dir: Path | None = None
    report_dir: Path | None = None

    world = _under_root("world")
    snapshots = _under_root("snapshot")
    embeddings = _under_root("embeddings")
    state = _under_root("state")
    store = _under_root("store")
    reports = _under_root("report")


@dataclass(frozen=True)
class UpstreamSpec:
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
    model: DownstreamConfig = DownstreamConfig(derm_inputs=tuple(DERM_INPUTS))
    train: DownstreamTrainConfig = DownstreamTrainConfig(epochs=24)
    seed: int = 0
    train_day_start: int = 8
    test_day: int = 18

    @property
    def task(self) -> str:
        return self.model.task


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

        def check(section: str, validate: Callable[[], None],
                  key: str | None = None):
            # each message of these validators is about key, when given,
            # else starts with its key
            try:
                validate()
            except (ValueError, DermError) as e:
                detail = str(e)
                if key is None:
                    key, _, detail = detail.partition(" ")
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
        check("lifecycle", lc.heuristic.validate, "heuristic")
        for key in ("retention_days", "back_window"):
            if getattr(lc, key) < 1:
                fail("lifecycle", key, "must be >= 1")
        ds = self.downstream
        check("downstream", ds.model.validate)
        if not (1 <= ds.train_day_start < ds.test_day):
            fail("downstream", "train_day_start", f"{ds.train_day_start} must "
                 f"lie in [1, test_day) = [1, {ds.test_day})")
        if ds.test_day > self.world.days:
            fail("downstream", "test_day", f"{ds.test_day} is past the last "
                 f"day of the world, {self.world.days}")
        check("downstream", ds.train.validate)
        if not (0 <= ds.seed < 2**64):
            fail("downstream", "seed", f"{ds.seed} must lie in [0, 2**64)")
        if not (0 <= self.serve.port <= 65535):
            fail("serve", "port", f"{self.serve.port} must lie in [0, 65535]")
        ex = self.experiment
        if ex.grid not in ("heuristics", "inputs"):
            fail("experiment", "grid", f"must be heuristics or inputs, got {ex.grid!r}")
        check("experiment", DownstreamConfig(ex.task, ex.derm_inputs).validate)
        seeds = ex.seeds
        if len(set(seeds)) < len(seeds) or not all(0 <= s < 2**64 for s in seeds):
            fail("experiment", "seeds", f"must be distinct, in [0, 2**64), got {seeds}")
        for h in ex.heuristics:
            check("experiment", h.validate, "heuristics")
        labels = [h.label for h in ex.heuristics]
        if len(set(labels)) != len(labels):
            fail("experiment", "heuristics",
                 f"labels must be distinct, got {', '.join(labels)}")
        # emit_config's text must parse back (an empty list, for one, does not)
        for section, part in _sections(self):
            for key, codec, value in _entries(part):
                text = codec.emit(value)
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
            train=TrainConfig(learning_rate=0.1, batch_size=32,
                              epochs=epochs_by_model[name], seed=i),
        )
        for i, name in enumerate(UPSTREAM_MODELS)
    }
    return PipelineConfig(upstream=upstream)


# ---------------------------------------------------------------------------
# tower wiring


_USER_BLOCKS = (("mlp", "masknet"), ("attention", "mlp"), ("mlp", "mlp"))
_PIN_BLOCKS = (("masknet", "mlp"), ("mlp", "attention"), ("mlp", "mlp"))


def build_model(world: WorldConfig, model: str, spec: UpstreamSpec) -> UpstreamModel:
    """Upstream model `model` (ctr or cvr), trained on its own label."""
    user_cfg = TowerConfig(
        slots=(
            SlotSpec("profile", "dense", dim=world.latent_dim),
            SlotSpec("uid", "categorical", cardinality=world.num_users),
            SlotSpec("hist", "sequence", cardinality=world.num_pins),
        ),
        blocks=_USER_BLOCKS[:spec.num_layers],
        token_dim=spec.token_dim,
        num_tokens=spec.num_tokens,
    )
    pin_cfg = TowerConfig(
        slots=(
            SlotSpec("attrs", "dense", dim=world.latent_dim),
            SlotSpec("pid", "categorical", cardinality=world.num_pins),
        ),
        blocks=_PIN_BLOCKS[:spec.num_layers],
        token_dim=spec.token_dim,
        num_tokens=spec.num_tokens,
    )
    context = (SlotSpec("hour", "dense", dim=1),)
    return build_upstream_model(user_cfg, pin_cfg, context,
                                task=TASK_LABELS[model], seed=spec.train.seed)


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


def _items(text: str) -> tuple[str, ...]:
    items = tuple(part.strip() for part in text.split(",") if part.strip())
    if not items:
        raise ValueError("expected a comma-separated list")
    return items


def _inputs(text: str) -> tuple[str, ...]:
    items = _items(text)
    return {("all",): tuple(DERM_INPUTS), ("none",): ()}.get(items, items)


_CODECS = {
    int: _Codec(_number(int, "an integer"), str),
    float: _Codec(_number(float, "a number"), float_text),
    str: _Codec(str, str),
    Path: _Codec(Path, str),
    Path | None: _Codec(Path, lambda v: None if v is None else str(v)),
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


# DownstreamConfig's layer sizes: fixed, so no key sets them
_FIXED_SIZES = ("expert_hidden", "expert_out", "seq_dim")


@functools.cache
def _schema(cls) -> tuple[tuple[str, _Codec | None], ...]:
    """(field, codec) for each field of cls that the text sets; a nested
    config's codec is None."""
    hints = get_type_hints(cls)
    return tuple((f.name, _CODECS.get(hints[f.name]))
                 for f in fields(cls) if f.name not in _FIXED_SIZES)


def _entries(part):
    """(key, codec, value) for each key of part, in file order."""
    for name, codec in _schema(type(part)):
        value = getattr(part, name)
        if codec is None:
            yield from _entries(value)
        else:
            yield name, codec, value


def _build(part, values: dict):
    """part with each key in values set, inside nested configs too."""
    changes = {}
    for name, codec in _schema(type(part)):
        if codec is None:
            changes[name] = _build(getattr(part, name), values)
        elif name in values:
            changes[name] = values[name]
    return replace(part, **changes)


def _sections(cfg: PipelineConfig):
    """(section, part of cfg) for every section, in file order; the name of
    an [upstream.*] section picks the model's label and source."""
    for f in fields(PipelineConfig):
        part = getattr(cfg, f.name)
        if f.name == "upstream":
            for model in UPSTREAM_MODELS:
                yield f"upstream.{model}", part[model]
        else:
            yield f.name, part


def _from_sections(parts: dict) -> PipelineConfig:
    """The config whose _sections are parts."""
    return PipelineConfig(
        upstream={model: parts[f"upstream.{model}"] for model in UPSTREAM_MODELS},
        **{f.name: parts[f.name] for f in fields(PipelineConfig)
           if f.name != "upstream"})


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


def _read_section(name: str, raw: dict[str, str], part,
                  locator: _Locator) -> dict:
    """Each key of part present in raw, read by its codec."""

    def fail(key: str, detail: str):
        raise ConfigParseError(f"{locator.locate(name, key)}[{name}] {key}: {detail}")

    codecs = {key: codec for key, codec, _ in _entries(part)}
    values = {}
    for key, codec in codecs.items():
        if key in raw:
            try:
                values[key] = codec.parse(raw[key].strip())
            except (ValueError, WeightOutOfRangeError) as e:
                fail(key, str(e))
    unknown = sorted(raw.keys() - codecs.keys())
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
    defaults = dict(_sections(default_config()))
    for section in parser.sections():
        if section not in defaults:
            raise ConfigParseError(
                f"{locator.locate(section)}unknown section [{section}]")
    cfg = _from_sections({
        name: _build(part, _read_section(
            name, dict(parser[name]) if parser.has_section(name) else {},
            part, locator))
        for name, part in defaults.items()
    })
    cfg.validate(locator.locate)
    return cfg


def load_config(path: Path) -> PipelineConfig:
    from .errors import MissingPrerequisiteError

    path = Path(path)
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
    for name, part in _sections(cfg):
        lines = [f"[{name}]"]
        for key, codec, value in _entries(part):
            text = codec.emit(value)
            if text is not None:
                lines.append(f"{key} = {text}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
