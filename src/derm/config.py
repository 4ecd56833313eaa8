"""Pipeline configuration: a line-oriented key=value file with sections.

The whole run is described by one file so experiment grids are reviewable
artifacts. Parsing is eager and total: every key is type-checked and every
semantic invariant validated before any command does work, and parse errors
carry the line and column of the offending entry. emit_config writes the
canonical form; parse(emit(parse(text))) equals parse(text).
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field
from pathlib import Path

from .downstream import DERM_INPUTS, DownstreamConfig
from .errors import ConfigParseError
from .lifecycle import RETENTION_DAYS, AggregationHeuristic
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

    def validate(self) -> None:
        self.world.validate()
        for name, spec in self.upstream.items():
            try:
                spec.train.validate()
            except ValueError as e:
                raise ConfigParseError(f"[upstream.{name}] {e}") from e
            if not (1 <= spec.batch_window_end <= self.upstream_end_day):
                raise ConfigParseError(
                    f"[upstream.{name}] batch_window_end {spec.batch_window_end} "
                    f"must lie in [1, {self.upstream_end_day}]"
                )
            if spec.token_dim < 1 or spec.num_tokens < 1 or spec.num_layers < 1:
                raise ConfigParseError(
                    f"[upstream.{name}] tower sizes must be >= 1"
                )
        lc = self.lifecycle
        lc.heuristic.validate()
        if lc.retention_days < 1:
            raise ConfigParseError("[lifecycle] retention_days must be >= 1")
        if not (1 <= lc.back_window):
            raise ConfigParseError("[lifecycle] back_window must be >= 1")
        ds = self.downstream
        ds.model_config().validate()
        if not (1 <= ds.train_day_start < ds.test_day <= self.world.days):
            raise ConfigParseError(
                f"[downstream] need 1 <= train_day_start < test_day <= "
                f"{self.world.days}, got {ds.train_day_start} and {ds.test_day}"
            )
        if ds.learning_rate <= 0 or ds.batch_size < 1 or ds.epochs < 1:
            raise ConfigParseError("[downstream] training hyperparameters out of range")
        ex = self.experiment
        if ex.grid not in ("heuristics", "inputs"):
            raise ConfigParseError(
                f"[experiment] grid must be heuristics or inputs, got {ex.grid!r}"
            )
        if ex.task not in UPSTREAM_MODELS:
            raise ConfigParseError(f"[experiment] unknown task {ex.task!r}")
        if not ex.seeds:
            raise ConfigParseError("[experiment] seeds must be non-empty")
        if ex.grid == "heuristics" and not ex.heuristics:
            raise ConfigParseError("[experiment] heuristics must be non-empty")
        for h in ex.heuristics:
            h.validate()
        for name in ex.derm_inputs:
            if name not in DERM_INPUTS:
                raise ConfigParseError(f"[experiment] unknown derm input {name!r}")


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
# parsing


_SECTIONS = ("world", "paths", "upstream.ctr", "upstream.cvr", "lifecycle",
             "serve", "downstream", "experiment")

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
        if key is not None and (section, key) in self.options:
            line, col = self.options[(section, key)]
            return f"line {line}, column {col}"
        if section in self.sections:
            return f"line {self.sections[section]}, column 1"
        return "line 1, column 1"


class _Section:
    def __init__(self, name: str, raw: dict[str, str], locator: _Locator):
        self.name = name
        self.raw = raw
        self.locator = locator
        self.seen: set[str] = set()

    def _fail(self, key: str, detail: str):
        where = self.locator.locate(self.name, key)
        raise ConfigParseError(f"{where}: [{self.name}] {key}: {detail}")

    def _value(self, key: str, default):
        self.seen.add(key)
        if key not in self.raw:
            return default
        return self.raw[key].strip()

    def get_str(self, key: str, default: str) -> str:
        v = self._value(key, default)
        return v

    def get_int(self, key: str, default: int) -> int:
        v = self._value(key, default)
        if isinstance(v, int):
            return v
        try:
            return int(v)
        except ValueError:
            self._fail(key, f"expected an integer, got {v!r}")

    def get_float(self, key: str, default: float) -> float:
        v = self._value(key, default)
        if isinstance(v, float):
            return v
        try:
            return float(v)
        except ValueError:
            self._fail(key, f"expected a number, got {v!r}")

    def get_bool(self, key: str, default: bool) -> bool:
        v = self._value(key, default)
        if isinstance(v, bool):
            return v
        low = v.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        self._fail(key, f"expected true or false, got {v!r}")

    def get_optional_int(self, key: str, default: int | None) -> int | None:
        v = self._value(key, default)
        if v is None or isinstance(v, int):
            return v
        if v.lower() == "none":
            return None
        try:
            return int(v)
        except ValueError:
            self._fail(key, f"expected an integer or none, got {v!r}")

    def get_path(self, key: str, default: Path | None) -> Path | None:
        v = self._value(key, default)
        if v is None or isinstance(v, Path):
            return v
        return Path(v)

    def get_list(self, key: str, default):
        v = self._value(key, default)
        if v is None or isinstance(v, tuple):
            return v
        items = tuple(part.strip() for part in v.split(",") if part.strip())
        if not items:
            self._fail(key, "expected a comma-separated list")
        return items

    def get_int_list(self, key: str, default: tuple[int, ...]) -> tuple[int, ...]:
        items = self.get_list(key, default)
        if items is default:
            return default
        out = []
        for part in items:
            try:
                out.append(int(part))
            except ValueError:
                self._fail(key, f"expected integers, got {part!r}")
        return tuple(out)

    def get_heuristic(self, key: str, default: AggregationHeuristic) -> AggregationHeuristic:
        v = self._value(key, default)
        if isinstance(v, AggregationHeuristic):
            return v
        try:
            return AggregationHeuristic.parse(v)
        except Exception as e:
            self._fail(key, str(e))

    def reject_unknown(self) -> None:
        unknown = set(self.raw) - self.seen
        if unknown:
            key = sorted(unknown)[0]
            self._fail(key, "unknown key")


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
    for section in parser.sections():
        if section not in _SECTIONS:
            where = locator.locate(section)
            raise ConfigParseError(f"{where}: unknown section [{section}]")

    def sec(name: str) -> _Section:
        raw = dict(parser[name]) if parser.has_section(name) else {}
        return _Section(name, raw, locator)

    defaults = default_config()

    w = sec("world")
    dw = defaults.world
    world = WorldConfig(
        num_users=w.get_int("num_users", dw.num_users),
        num_pins=w.get_int("num_pins", dw.num_pins),
        latent_dim=w.get_int("latent_dim", dw.latent_dim),
        days=w.get_int("days", dw.days),
        activity_rate=w.get_float("activity_rate", dw.activity_rate),
        click_rate=w.get_float("click_rate", dw.click_rate),
        conversion_rate=w.get_float("conversion_rate", dw.conversion_rate),
        noise_level=w.get_float("noise_level", dw.noise_level),
        events_per_user=w.get_float("events_per_user", dw.events_per_user),
        seed=w.get_int("seed", dw.seed),
        threshold_labels=w.get_bool("threshold_labels", dw.threshold_labels),
    )
    w.reject_unknown()

    p = sec("paths")
    paths = PathsConfig(
        root=p.get_path("root", Path("run")),
        world_dir=p.get_path("world_dir", None),
        snapshot_dir=p.get_path("snapshot_dir", None),
        embeddings_dir=p.get_path("embeddings_dir", None),
        state_dir=p.get_path("state_dir", None),
        store_dir=p.get_path("store_dir", None),
        report_dir=p.get_path("report_dir", None),
    )
    p.reject_unknown()

    upstream = {}
    for name in UPSTREAM_MODELS:
        u = sec(f"upstream.{name}")
        du = defaults.upstream[name]
        task = u.get_str("task", du.task)
        if task not in UPSTREAM_TASKS.values():
            u._fail("task", f"expected click or conversion, got {task!r}")
        train = TrainConfig(
            learning_rate=u.get_float("learning_rate", du.train.learning_rate),
            momentum=u.get_float("momentum", du.train.momentum),
            batch_size=u.get_int("batch_size", du.train.batch_size),
            epochs=u.get_int("epochs", du.train.epochs),
            negatives_per_pair=u.get_int("negatives_per_pair",
                                         du.train.negatives_per_pair),
            seed=u.get_int("seed", du.train.seed),
            contrastive_weight=u.get_float("contrastive_weight",
                                           du.train.contrastive_weight),
            supervised_weights={task: u.get_float("supervised_weight", 1.0)},
        )
        upstream[name] = UpstreamSpec(
            task=task,
            source=UPSTREAM_SOURCES[name],
            train=train,
            batch_window_end=u.get_int("batch_window_end", du.batch_window_end),
            token_dim=u.get_int("token_dim", du.token_dim),
            num_tokens=u.get_int("num_tokens", du.num_tokens),
            num_layers=u.get_int("num_layers", du.num_layers),
        )
        u.reject_unknown()

    lc = sec("lifecycle")
    dl = defaults.lifecycle
    lifecycle = LifecycleConfig(
        heuristic=lc.get_heuristic("heuristic", dl.heuristic),
        retention_days=lc.get_int("retention_days", dl.retention_days),
        back_window=lc.get_int("back_window", dl.back_window),
    )
    lc.reject_unknown()

    sv = sec("serve")
    serve = ServeConfig(
        host=sv.get_str("host", defaults.serve.host),
        port=sv.get_int("port", defaults.serve.port),
    )
    sv.reject_unknown()

    d = sec("downstream")
    dd = defaults.downstream
    downstream = DownstreamSection(
        task=d.get_str("task", dd.task),
        derm_inputs=_parse_inputs(d, "derm_inputs", dd.derm_inputs),
        projection_dim=d.get_optional_int("projection_dim", dd.projection_dim),
        num_experts=d.get_int("num_experts", dd.num_experts),
        cross_layers=d.get_int("cross_layers", dd.cross_layers),
        sequence_encoder=d.get_bool("sequence_encoder", dd.sequence_encoder),
        learning_rate=d.get_float("learning_rate", dd.learning_rate),
        batch_size=d.get_int("batch_size", dd.batch_size),
        epochs=d.get_int("epochs", dd.epochs),
        seed=d.get_int("seed", dd.seed),
        train_day_start=d.get_int("train_day_start", dd.train_day_start),
        test_day=d.get_int("test_day", dd.test_day),
    )
    d.reject_unknown()

    e = sec("experiment")
    de = defaults.experiment
    heuristics = e.get_list("heuristics", None)
    if heuristics is None:
        parsed_heuristics = de.heuristics
    else:
        parsed_heuristics = tuple(_heuristic(e, h) for h in heuristics)
    experiment = ExperimentConfig(
        grid=e.get_str("grid", de.grid),
        task=e.get_str("task", de.task),
        seeds=e.get_int_list("seeds", de.seeds),
        heuristics=parsed_heuristics,
        derm_inputs=_parse_inputs(e, "derm_inputs", de.derm_inputs),
    )
    e.reject_unknown()

    cfg = PipelineConfig(world=world, paths=paths, upstream=upstream,
                         lifecycle=lifecycle, serve=serve,
                         downstream=downstream, experiment=experiment)
    cfg.validate()
    return cfg


def _heuristic(section: _Section, text: str) -> AggregationHeuristic:
    try:
        return AggregationHeuristic.parse(text)
    except Exception as e:
        section._fail("heuristics", str(e))


def _parse_inputs(section: _Section, key: str,
                  default: tuple[str, ...]) -> tuple[str, ...]:
    items = section.get_list(key, default)
    if items is default:
        return default
    if items == ("all",):
        return tuple(DERM_INPUTS)
    if items == ("none",):
        return ()
    return items


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
    w, pth, lc, sv, ds, ex = (cfg.world, cfg.paths, cfg.lifecycle, cfg.serve,
                              cfg.downstream, cfg.experiment)
    lines = ["[world]"]
    lines += [
        f"num_users = {w.num_users}",
        f"num_pins = {w.num_pins}",
        f"latent_dim = {w.latent_dim}",
        f"days = {w.days}",
        f"activity_rate = {w.activity_rate:g}",
        f"click_rate = {w.click_rate:g}",
        f"conversion_rate = {w.conversion_rate:g}",
        f"noise_level = {w.noise_level:g}",
        f"events_per_user = {w.events_per_user:g}",
        f"seed = {w.seed}",
        f"threshold_labels = {str(w.threshold_labels).lower()}",
        "",
        "[paths]",
        f"root = {pth.root}",
    ]
    for name in ("world", "snapshot", "embeddings", "state", "store", "report"):
        explicit = getattr(pth, f"{name}_dir")
        if explicit is not None:
            lines.append(f"{name}_dir = {explicit}")
    for name in UPSTREAM_MODELS:
        spec = cfg.upstream[name]
        t = spec.train
        lines += [
            "",
            f"[upstream.{name}]",
            f"task = {spec.task}",
            f"learning_rate = {t.learning_rate:g}",
            f"momentum = {t.momentum:g}",
            f"batch_size = {t.batch_size}",
            f"epochs = {t.epochs}",
            f"negatives_per_pair = {t.negatives_per_pair}",
            f"seed = {t.seed}",
            f"contrastive_weight = {t.contrastive_weight:g}",
            f"supervised_weight = {t.weight_for(spec.task):g}",
            f"batch_window_end = {spec.batch_window_end}",
            f"token_dim = {spec.token_dim}",
            f"num_tokens = {spec.num_tokens}",
            f"num_layers = {spec.num_layers}",
        ]
    lines += [
        "",
        "[lifecycle]",
        f"heuristic = {lc.heuristic.label}",
        f"retention_days = {lc.retention_days}",
        f"back_window = {lc.back_window}",
        "",
        "[serve]",
        f"host = {sv.host}",
        f"port = {sv.port}",
        "",
        "[downstream]",
        f"task = {ds.task}",
        f"derm_inputs = {', '.join(ds.derm_inputs) if ds.derm_inputs else 'none'}",
        f"projection_dim = {ds.projection_dim if ds.projection_dim is not None else 'none'}",
        f"num_experts = {ds.num_experts}",
        f"cross_layers = {ds.cross_layers}",
        f"sequence_encoder = {str(ds.sequence_encoder).lower()}",
        f"learning_rate = {ds.learning_rate:g}",
        f"batch_size = {ds.batch_size}",
        f"epochs = {ds.epochs}",
        f"seed = {ds.seed}",
        f"train_day_start = {ds.train_day_start}",
        f"test_day = {ds.test_day}",
        "",
        "[experiment]",
        f"grid = {ex.grid}",
        f"task = {ex.task}",
        f"seeds = {', '.join(str(s) for s in ex.seeds)}",
        f"heuristics = {', '.join(h.label for h in ex.heuristics)}",
        f"derm_inputs = {', '.join(ex.derm_inputs) if ex.derm_inputs else 'none'}",
    ]
    return "\n".join(lines) + "\n"
