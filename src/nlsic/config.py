"""Experiment configuration: one structured YAML file per run.

Sections mirror the module configs (channel, sic, detector, sweep, eval).
`_SCHEMA` states every key once, with its type, default and least allowed
value; parsing, defaults, range checks, the config classes and the resolved
configuration all read it.  Parsing is strict: unknown keys are rejected
with their full dotted path, and missing required keys, wrong types and
out-of-range values name the offending key.  The resolved configuration
(all defaults filled in) serializes to canonical JSON, whose hash names the
run's output directory.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, make_dataclass
from functools import partial
from typing import Optional

import yaml

from . import channel as ch


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class GibbsConfig:
    """The Gibbs sampler's settings, the config's gibbs section."""

    memory: int
    n_iter: int
    n_par: int
    burn_in: int = 25

    def __post_init__(self):
        if not self.n_iter > self.burn_in >= 0:
            raise ValueError("need n_iter > burn_in >= 0")
        if self.n_par < 1:
            raise ValueError("need at least one chain")


# Every key of the schema: dotted YAML key -> (type, default, least allowed
# value, or for a string the tuple of its allowed values).  A default of ...
# marks a required key; null in the YAML means the default.  A type in a list
# means a non-empty list of it, each entry bounded.  Every float must be
# finite.  A key whose one allowed value is its default is stored nowhere.
_SCHEMA = {
    "channel.alphabet": (str, ..., None),
    "channel.symbol_rate": (float, 1.0, None),
    "channel.n_os": (int, 2, None),
    "channel.n_sim": (int, 2, None),
    "channel.nonlinearity": (str, "square-law",
                             ("square-law", "identity", "rapp")),
    "channel.rapp.p": (float, 3.0, None),
    "channel.rapp.x_sat": (float, 1.0, None),
    "channel.k_g": (int, None, None),
    "channel.k_h": (int, 1, None),
    "channel.fiber.length_km": (float, None, None),
    "channel.fiber.beta2_s2_per_km": (float, None, None),
    # the detectors model real observations, which the channel guarantees
    "channel.noise.kind": (str, "real", ("real",)),
    "channel.noise.variance": (float, 1.0, None),
    "channel.precoding": (str, "none", ("none", "differential-phase")),
    "sic.stages": (int, 1, 1),
    "detector.kind": (str, ..., ("fba", "gibbs", "rnn", "uniform")),
    "detector.fba.memory": (int, 1, None),
    "detector.fba.future": (int, None, None),
    "detector.gibbs.memory": (int, 1, 0),
    "detector.gibbs.n_iter": (int, 125, 1),
    "detector.gibbs.n_par": (int, 64, 1),
    "detector.gibbs.burn_in": (int, 25, 0),
    "detector.rnn.l_y": (int, 16, 1),
    "detector.rnn.l_ic": (int, 0, 0),
    "detector.rnn.hidden": ([int], (32,), 2),
    "detector.rnn.t_rnn": (int, 32, 1),
    "detector.rnn.learn_rate": (float, 1e-3, 0),
    "detector.rnn.n_batch": (int, 64, 1),
    "detector.rnn.n_iter": (int, 2000, 0),
    "detector.rnn.warm_start": (bool, True, None),
    "sweep.p_tx_db": ([float], (0.0,), None),
    "eval.n_blk": (int, 20, 1),
    "eval.n": (int, 96, 1),
    "eval.ub_memory": (int, None, None),
    "seed": (int, 0, 0),
    "output_dir": (str, "out", None),
}
_SECTION_PATHS = {key[:i] for key in _SCHEMA
                  for i, c in enumerate(key) if c == "."}


# ExperimentConfig attribute -> key prefix of each section.  A section's
# field is its key minus the prefix, with dots turned into underscores; the
# other keys name their ExperimentConfig attribute that way, except these.
_SECTIONS = {"channel": "channel.", "fba": "detector.fba.",
             "gibbs": "detector.gibbs.", "rnn": "detector.rnn."}
_RENAMED = {"sic.stages": "stages", "eval.ub_memory": "ub_memory"}


def _place(key: str):
    """(section attribute or None, field name) holding a key's value."""
    for attr, prefix in _SECTIONS.items():
        if key.startswith(prefix):
            return attr, key[len(prefix):].replace(".", "_")
    return None, _RENAMED.get(key, key.replace(".", "_"))


def _config_classes() -> dict:
    """ExperimentConfig, under None, and its section dataclasses by
    attribute, their fields in _SCHEMA order and typed from it.  A section
    sits where its first key does; the gibbs section is GibbsConfig, which
    the sampler takes as it is."""
    fields = {attr: [] for attr in (None, *_SECTIONS)}
    for key, (kind, default, least) in _SCHEMA.items():
        if least == (default,):
            continue
        attr, name = _place(key)
        if attr and not fields[attr]:
            fields[None].append((attr, attr))
        kind = tuple if isinstance(kind, list) else kind
        fields[attr].append((name, Optional[kind] if default is None else kind))
    frozen = partial(make_dataclass, frozen=True,
                     namespace={"__module__": __name__})
    classes = {attr: frozen(f"{attr.capitalize()}Section", fields[attr])
               for attr in _SECTIONS if attr != "gibbs"}
    classes["gibbs"] = GibbsConfig
    classes[None] = frozen("ExperimentConfig", [
        (name, classes.get(name, kind)) for name, kind in fields[None]])
    return classes


_CLASSES = _config_classes()
ChannelSection = _CLASSES["channel"]
FbaSection = _CLASSES["fba"]
RnnSection = _CLASSES["rnn"]
ExperimentConfig = _CLASSES[None]


def millidb(p_tx_db: float) -> int:
    """A sweep power in whole milli-dB, the unit of the run's file names."""
    return int(round(p_tx_db * 1000))


def _finite_point(p_tx_db: float) -> bool:
    """Whether a sweep power's milli-dB tag and its linear power
    10**(p/10), to which the channel is scaled, are finite."""
    try:
        return math.isfinite(p_tx_db * 1000) and \
            math.isfinite(10.0 ** (p_tx_db / 10.0))
    except OverflowError:
        return False


def _flatten(data, path: str) -> dict:
    """Values of a YAML mapping by dotted key, refusing unknown keys."""
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'top level'}: expected a mapping")
    flat = {}
    for key, value in data.items():
        dotted = f"{path}.{key}" if path else str(key)
        if "." in str(key) or \
                dotted not in _SCHEMA and dotted not in _SECTION_PATHS:
            raise ConfigError(f"unknown key {dotted}")
        if dotted in _SCHEMA:
            flat[dotted] = value
        else:
            flat.update(_flatten(value, dotted))
    return flat


def _scalar(value, key: str, kind):
    if kind is float and isinstance(value, (int, str)) \
            and not isinstance(value, bool):
        # YAML 1.1 reads exponents without a sign ("3.5e10") as strings
        try:
            value = float(value)
        except (ValueError, OverflowError):
            pass
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(
            f"{key}: expected {kind.__name__}, got {type(value).__name__}"
            f" ({value!r})")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite")
    return value


def _get(flat: dict, key: str):
    """A key's value: its default when absent or null, else checked against
    its type and least allowed value."""
    kind, default, least = _SCHEMA[key]
    value = flat.get(key)
    if value is None:
        if default is ...:
            raise ConfigError(f"missing required key {key}")
        return default
    if not isinstance(kind, list):
        value = _scalar(value, key, kind)
    elif isinstance(value, list) and value:
        value = tuple(_scalar(v, key, kind[0]) for v in value)
    else:
        raise ConfigError(f"{key}: expected a non-empty list of "
                          f"{kind[0].__name__}")
    if isinstance(least, tuple):
        if value not in least:
            raise ConfigError(f"{key}: {value!r} is not one of "
                              f"{', '.join(least)}")
    elif least is not None and \
            min(value if isinstance(value, tuple) else (value,)) < least:
        raise ConfigError(f"{key}: must be >= {least}")
    return value


def parse_config(data: dict) -> ExperimentConfig:
    flat = _flatten(data, "")
    fields = {attr: {} for attr in (None, *_SECTIONS)}
    for key, (_, default, least) in _SCHEMA.items():
        value = _get(flat, key)
        if least != (default,):
            attr, name = _place(key)
            fields[attr][name] = value
    # with the bounds met, the one check GibbsConfig can still fail
    g = fields["gibbs"]
    if g["burn_in"] >= g["n_iter"]:
        raise ConfigError(f"detector.gibbs.burn_in: must be less than "
                          f"detector.gibbs.n_iter={g['n_iter']}")
    cfg = ExperimentConfig(**fields[None], **{
        attr: _CLASSES[attr](**fields[attr]) for attr in _SECTIONS})
    fiber = {k: v for k, v in flat.items()
             if k.startswith("channel.fiber.") and v is not None}
    for key in ("channel.fiber.length_km", "channel.fiber.beta2_s2_per_km"):
        if fiber and key not in fiber:
            raise ConfigError(f"{key}: required with any other channel.fiber key")
    if cfg.eval_n % cfg.stages != 0:
        raise ConfigError(f"eval.n={cfg.eval_n} not divisible by "
                          f"sic.stages={cfg.stages}")
    for p in cfg.sweep_p_tx_db:
        if not _finite_point(p):
            raise ConfigError(f"sweep.p_tx_db: {p} dB has no finite milli-dB "
                              f"tag or linear power")
    if len({millidb(p) for p in cfg.sweep_p_tx_db}) != len(cfg.sweep_p_tx_db):
        raise ConfigError("sweep.p_tx_db: two points round to the same milli-dB")
    _check_run_objects(cfg)
    return cfg


def _domain_check(key: str, build):
    try:
        return build()
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def rnn_shape(cfg: ExperimentConfig, s: int, m_symbols: int) -> RnnShape:
    """Shape of the network for stage s; ValueError if cfg cannot build it.
    nlsic.rnn is imported here, so only an rnn run loads it."""
    from .rnn import RnnShape

    r = cfg.rnn
    return RnnShape(dims=(r.l_y + r.l_ic,) + r.hidden, l_y=r.l_y, l_ic=r.l_ic,
                    n_stages=cfg.stages, s=s, m_symbols=m_symbols,
                    n_os=cfg.channel.n_os)


def _check_run_objects(cfg: ExperimentConfig) -> None:
    """Run the checks of the domain objects this run will build, so a value
    they reject exits as a configuration error naming its key."""
    alphabet = cfg.channel.alphabet
    m_symbols = _domain_check("channel.alphabet",
                              lambda: ch.Alphabet.from_name(alphabet).size)
    build_channel(cfg)
    n_os = cfg.channel.n_os
    if cfg.detector_kind == "fba" or cfg.ub_memory is not None:
        # only a run that builds a trellis table loads the trellis module
        from .fba import check_table_size
    if cfg.detector_kind == "fba":
        _domain_check("detector.fba.memory", lambda: check_table_size(
            m_symbols, cfg.fba.memory, n_os))
        if cfg.fba.future is not None and not 0 <= cfg.fba.future <= cfg.fba.memory:
            raise ConfigError("detector.fba.future: must lie in 0..memory")
    if cfg.ub_memory is not None:
        _domain_check("eval.ub_memory", lambda: check_table_size(
            m_symbols, cfg.ub_memory, n_os))
    if cfg.detector_kind == "rnn":
        _domain_check("detector.rnn.hidden",
                      lambda: rnn_shape(cfg, 1, m_symbols))
        t_rnn = cfg.rnn.t_rnn
        # stage s of S trains on sequences that cycle through S-s+1 phases
        if any(t_rnn % p for p in range(1, cfg.stages + 1)):
            raise ConfigError(f"detector.rnn.t_rnn: {t_rnn} is not divisible "
                              f"by every phase count 1..{cfg.stages}")
        # each stage warm-starts from its network at the previous power
        if cfg.rnn.warm_start and \
                list(cfg.sweep_p_tx_db) != sorted(cfg.sweep_p_tx_db):
            raise ConfigError("sweep.p_tx_db: must ascend when "
                              "detector.rnn.warm_start is on")


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    return parse_config(data or {})


def resolved_dict(cfg: ExperimentConfig) -> dict:
    """Fully-resolved canonical structure; parsing it again is a fixpoint.
    The fiber keys are left out when no fiber is given."""
    out = {}
    for key, (_, default, least) in _SCHEMA.items():
        if key.startswith("channel.fiber.") and \
                cfg.channel.fiber_length_km is None:
            continue
        if least == (default,):
            value = default
        else:
            attr, name = _place(key)
            value = getattr(getattr(cfg, attr) if attr else cfg, name)
        *sections, leaf = key.split(".")
        node = out
        for section in sections:
            node = node.setdefault(section, {})
        node[leaf] = list(value) if isinstance(value, tuple) else value
    return out


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(resolved_dict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# YAML key of each ChannelConfig field or make_channel argument whose value
# the channel's checks can reject
_CHANNEL_KEYS = {"symbol_rate": "channel.symbol_rate",
                 "n_os": "channel.n_os", "n_sim": "channel.n_sim",
                 "nonlinearity": "channel.nonlinearity",
                 "fiber": "channel.fiber",
                 "noise_variance": "channel.noise.variance",
                 "p": "channel.rapp.p", "x_sat": "channel.rapp.x_sat",
                 "k_g": "channel.k_g", "k_h": "channel.k_h"}


def build_channel(cfg: ExperimentConfig) -> ch.DiscreteChannel:
    """Unscaled channel; sweep points apply with_transmit_power_db.  A value
    the channel rejects raises ConfigError naming its key."""
    c = cfg.channel
    fiber = None
    if c.fiber_length_km is not None:
        fiber = ch.FiberParams(length_km=c.fiber_length_km,
                               beta2_s2_per_km=c.fiber_beta2_s2_per_km)
    try:
        if c.nonlinearity == "square-law":
            nonl = ch.SquareLaw()
        elif c.nonlinearity == "identity":
            nonl = ch.Identity()
        else:
            nonl = ch.RappPA(p=c.rapp_p, x_sat=c.rapp_x_sat)
        config = ch.ChannelConfig(
            alphabet=ch.Alphabet.from_name(c.alphabet),
            symbol_rate=c.symbol_rate, n_os=c.n_os, n_sim=c.n_sim,
            nonlinearity=nonl, fiber=fiber,
            noise_variance=c.noise_variance, precoding=c.precoding)
        return ch.make_channel(config, k_g=c.k_g, k_h=c.k_h)
    except ch.ChannelConfigError as exc:
        keys = ", ".join(_CHANNEL_KEYS[field] for field in exc.fields)
        raise ConfigError(f"{keys}: {exc}") from exc
