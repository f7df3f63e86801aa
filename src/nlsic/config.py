"""Experiment configuration: one structured YAML file per run.

Sections mirror the module configs (channel, sic, detector, sweep, eval).
Parsing is strict: unknown keys are rejected with their full dotted path,
missing required keys and wrong types name the offending key.  The resolved
configuration (all defaults filled in) serializes to canonical JSON, whose
hash names the run's output directory.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Optional

import yaml

from . import channel as ch
from .fba import check_table_size
from .gibbs import GibbsConfig
from .rnn import RnnShape


class ConfigError(ValueError):
    pass


def _require_mapping(obj, path: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a mapping")
    return obj


def _check_keys(data: dict, allowed, path: str):
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}" if path else
                              f"unknown key {key}")


def _get(data: dict, key: str, path: str, kind, default=...):
    if key not in data or data[key] is None:
        if default is ...:
            raise ConfigError(f"missing required key {path}.{key}")
        return default
    value = data[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is float and isinstance(value, str):
        # YAML 1.1 reads exponents without a sign ("3.5e10") as strings
        try:
            value = float(value)
        except ValueError:
            pass
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(
            f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}"
            f" ({value!r})")
    return value


@dataclass(frozen=True)
class ChannelSection:
    alphabet: str
    symbol_rate: float = 1.0
    n_os: int = 2
    n_sim: int = 2
    nonlinearity: str = "square-law"
    rapp_p: float = 3.0
    rapp_x_sat: float = 1.0
    k_g: Optional[int] = None
    k_h: int = 1
    fiber_length_km: Optional[float] = None
    fiber_beta2_s2_per_km: Optional[float] = None
    fiber_carrier_nm: float = 1550.0
    noise_kind: str = "real"
    noise_variance: float = 1.0
    precoding: str = "none"


@dataclass(frozen=True)
class FbaSection:
    memory: int = 1
    future: Optional[int] = None


@dataclass(frozen=True)
class GibbsSection:
    memory: int = 1
    n_iter: int = 125
    n_par: int = 64
    burn_in: int = 25


@dataclass(frozen=True)
class RnnSection:
    l_y: int = 16
    l_ic: int = 0
    hidden: tuple = (32,)
    t_rnn: int = 32
    learn_rate: float = 1e-3
    n_batch: int = 64
    n_iter: int = 2000
    warm_start: bool = True


@dataclass(frozen=True)
class ExperimentConfig:
    channel: ChannelSection
    stages: int
    detector_kind: str
    fba: FbaSection
    gibbs: GibbsSection
    rnn: RnnSection
    sweep_p_tx_db: tuple
    eval_n_blk: int
    eval_n: int
    ub_memory: Optional[int]
    seed: int
    output_dir: str


def parse_config(data: dict) -> ExperimentConfig:
    data = _require_mapping(data, "")
    _check_keys(data, {"channel", "sic", "detector", "sweep", "eval", "seed",
                       "output_dir"}, "")

    chd = _require_mapping(data.get("channel"), "channel")
    _check_keys(chd, {"alphabet", "symbol_rate", "n_os", "n_sim", "nonlinearity",
                      "rapp", "k_g", "k_h", "fiber", "noise", "precoding"},
                "channel")
    rapp = _require_mapping(chd.get("rapp"), "channel.rapp")
    _check_keys(rapp, {"p", "x_sat"}, "channel.rapp")
    fiber = _require_mapping(chd.get("fiber"), "channel.fiber")
    _check_keys(fiber, {"length_km", "beta2_s2_per_km", "carrier_nm"},
                "channel.fiber")
    noise = _require_mapping(chd.get("noise"), "channel.noise")
    _check_keys(noise, {"kind", "variance"}, "channel.noise")
    nonlinearity = _get(chd, "nonlinearity", "channel", str, "square-law")
    if nonlinearity not in ("square-law", "identity", "rapp"):
        raise ConfigError(f"channel.nonlinearity: unknown kind {nonlinearity!r}")
    channel = ChannelSection(
        alphabet=_get(chd, "alphabet", "channel", str),
        symbol_rate=_get(chd, "symbol_rate", "channel", float, 1.0),
        n_os=_get(chd, "n_os", "channel", int, 2),
        n_sim=_get(chd, "n_sim", "channel", int, 2),
        nonlinearity=nonlinearity,
        rapp_p=_get(rapp, "p", "channel.rapp", float, 3.0),
        rapp_x_sat=_get(rapp, "x_sat", "channel.rapp", float, 1.0),
        k_g=_get(chd, "k_g", "channel", int, None),
        k_h=_get(chd, "k_h", "channel", int, 1),
        fiber_length_km=_get(fiber, "length_km", "channel.fiber", float, None)
        if fiber else None,
        fiber_beta2_s2_per_km=_get(fiber, "beta2_s2_per_km", "channel.fiber",
                                   float, None) if fiber else None,
        fiber_carrier_nm=_get(fiber, "carrier_nm", "channel.fiber", float, 1550.0),
        noise_kind=_get(noise, "kind", "channel.noise", str, "real"),
        noise_variance=_get(noise, "variance", "channel.noise", float, 1.0),
        precoding=_get(chd, "precoding", "channel", str, "none"),
    )
    if (channel.fiber_length_km is None) != (channel.fiber_beta2_s2_per_km is None):
        raise ConfigError("channel.fiber: length_km and beta2_s2_per_km "
                          "must be given together")
    for key in ("length_km", "beta2_s2_per_km"):
        value = getattr(channel, f"fiber_{key}")
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"channel.fiber.{key}: must be finite")

    sicd = _require_mapping(data.get("sic"), "sic")
    _check_keys(sicd, {"stages"}, "sic")
    stages = _get(sicd, "stages", "sic", int, 1)
    if stages < 1:
        raise ConfigError("sic.stages: must be >= 1")

    det = _require_mapping(data.get("detector"), "detector")
    _check_keys(det, {"kind", "fba", "gibbs", "rnn"}, "detector")
    kind = _get(det, "kind", "detector", str)
    if kind not in ("fba", "gibbs", "rnn", "uniform"):
        raise ConfigError(f"detector.kind: unknown detector {kind!r}")
    fbad = _require_mapping(det.get("fba"), "detector.fba")
    _check_keys(fbad, {"memory", "future"}, "detector.fba")
    gibd = _require_mapping(det.get("gibbs"), "detector.gibbs")
    _check_keys(gibd, {"memory", "n_iter", "n_par", "burn_in"}, "detector.gibbs")
    rnnd = _require_mapping(det.get("rnn"), "detector.rnn")
    _check_keys(rnnd, {"l_y", "l_ic", "hidden", "t_rnn", "learn_rate",
                       "n_batch", "n_iter", "warm_start"}, "detector.rnn")
    hidden = rnnd.get("hidden", [32])
    if not isinstance(hidden, (list, tuple)) or \
            not all(isinstance(v, int) for v in hidden):
        raise ConfigError("detector.rnn.hidden: expected a list of ints")

    sweep = _require_mapping(data.get("sweep"), "sweep")
    _check_keys(sweep, {"p_tx_db"}, "sweep")
    p_list = sweep.get("p_tx_db", [0.0])
    if not isinstance(p_list, (list, tuple)) or not p_list or \
            not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    and math.isfinite(v) for v in p_list):
        raise ConfigError("sweep.p_tx_db: expected a non-empty list of "
                          "finite numbers")

    evald = _require_mapping(data.get("eval"), "eval")
    _check_keys(evald, {"n_blk", "n", "ub_memory"}, "eval")

    cfg = ExperimentConfig(
        channel=channel,
        stages=stages,
        detector_kind=kind,
        fba=FbaSection(memory=_get(fbad, "memory", "detector.fba", int, 1),
                       future=_get(fbad, "future", "detector.fba", int, None)),
        gibbs=GibbsSection(
            memory=_get(gibd, "memory", "detector.gibbs", int, 1),
            n_iter=_get(gibd, "n_iter", "detector.gibbs", int, 125),
            n_par=_get(gibd, "n_par", "detector.gibbs", int, 64),
            burn_in=_get(gibd, "burn_in", "detector.gibbs", int, 25)),
        rnn=RnnSection(
            l_y=_get(rnnd, "l_y", "detector.rnn", int, 16),
            l_ic=_get(rnnd, "l_ic", "detector.rnn", int, 0),
            hidden=tuple(hidden),
            t_rnn=_get(rnnd, "t_rnn", "detector.rnn", int, 32),
            learn_rate=_get(rnnd, "learn_rate", "detector.rnn", float, 1e-3),
            n_batch=_get(rnnd, "n_batch", "detector.rnn", int, 64),
            n_iter=_get(rnnd, "n_iter", "detector.rnn", int, 2000),
            warm_start=_get(rnnd, "warm_start", "detector.rnn", bool, True)),
        sweep_p_tx_db=tuple(float(v) for v in p_list),
        eval_n_blk=_get(evald, "n_blk", "eval", int, 20),
        eval_n=_get(evald, "n", "eval", int, 96),
        ub_memory=_get(evald, "ub_memory", "eval", int, None),
        seed=_get(data, "seed", "", int, 0),
        output_dir=_get(data, "output_dir", "", str, "out"),
    )
    if cfg.eval_n % cfg.stages != 0:
        raise ConfigError(f"eval.n={cfg.eval_n} not divisible by "
                          f"sic.stages={cfg.stages}")
    for key, value in (("eval.n_blk", cfg.eval_n_blk), ("eval.n", cfg.eval_n)):
        if value < 1:
            raise ConfigError(f"{key}: must be >= 1")
    if cfg.seed < 0:
        raise ConfigError("seed: must be >= 0")
    _check_run_objects(cfg)
    return cfg


def _domain_check(key: str, build):
    try:
        return build()
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _check_run_objects(cfg: ExperimentConfig) -> None:
    """Run the checks of the domain objects this run will build, so a value
    they reject exits as a configuration error naming its key."""
    alphabet = cfg.channel.alphabet
    m_symbols = _domain_check("channel.alphabet",
                              lambda: ch.Alphabet.from_name(alphabet).size)
    _channel_parts(cfg.channel)
    if cfg.channel.noise_kind != "real" and (
            cfg.detector_kind in ("fba", "gibbs") or cfg.ub_memory is not None):
        raise ConfigError("channel.noise.kind: the fba and gibbs detectors and "
                          "eval.ub_memory need real noise")
    n_os = cfg.channel.n_os
    if cfg.detector_kind == "fba":
        _domain_check("detector.fba.memory", lambda: check_table_size(
            m_symbols, cfg.fba.memory, n_os))
        if cfg.fba.future is not None and not 0 <= cfg.fba.future <= cfg.fba.memory:
            raise ConfigError("detector.fba.future: must lie in 0..memory")
    if cfg.ub_memory is not None:
        _domain_check("eval.ub_memory", lambda: check_table_size(
            m_symbols, cfg.ub_memory, n_os))
    if cfg.detector_kind == "gibbs":
        g = cfg.gibbs
        if g.memory < 0:
            raise ConfigError("detector.gibbs.memory: must be >= 0")
        _domain_check("detector.gibbs", lambda: GibbsConfig(
            memory=g.memory, n_iter=g.n_iter, n_par=g.n_par, burn_in=g.burn_in))
    if cfg.detector_kind == "rnn":
        r = cfg.rnn
        _domain_check("detector.rnn.hidden", lambda: RnnShape(
            dims=(r.l_y + r.l_ic,) + r.hidden, l_y=r.l_y, l_ic=r.l_ic,
            n_stages=cfg.stages, s=1, m_symbols=m_symbols, n_os=n_os))
        # stage s of S trains on sequences of S-s+1 interleaved phases
        if any(r.t_rnn % p for p in range(1, cfg.stages + 1)):
            raise ConfigError(f"detector.rnn.t_rnn: {r.t_rnn} is not divisible "
                              f"by every phase count 1..{cfg.stages}")


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    return parse_config(data or {})


def resolved_dict(cfg: ExperimentConfig) -> dict:
    """Fully-resolved canonical structure; parsing it again is a fixpoint."""
    out = {
        "channel": {
            "alphabet": cfg.channel.alphabet,
            "symbol_rate": cfg.channel.symbol_rate,
            "n_os": cfg.channel.n_os,
            "n_sim": cfg.channel.n_sim,
            "nonlinearity": cfg.channel.nonlinearity,
            "rapp": {"p": cfg.channel.rapp_p, "x_sat": cfg.channel.rapp_x_sat},
            "k_g": cfg.channel.k_g,
            "k_h": cfg.channel.k_h,
            "noise": {"kind": cfg.channel.noise_kind,
                      "variance": cfg.channel.noise_variance},
            "precoding": cfg.channel.precoding,
        },
        "sic": {"stages": cfg.stages},
        "detector": {
            "kind": cfg.detector_kind,
            "fba": {"memory": cfg.fba.memory, "future": cfg.fba.future},
            "gibbs": {"memory": cfg.gibbs.memory, "n_iter": cfg.gibbs.n_iter,
                      "n_par": cfg.gibbs.n_par, "burn_in": cfg.gibbs.burn_in},
            "rnn": {"l_y": cfg.rnn.l_y, "l_ic": cfg.rnn.l_ic,
                    "hidden": list(cfg.rnn.hidden), "t_rnn": cfg.rnn.t_rnn,
                    "learn_rate": cfg.rnn.learn_rate,
                    "n_batch": cfg.rnn.n_batch, "n_iter": cfg.rnn.n_iter,
                    "warm_start": cfg.rnn.warm_start},
        },
        "sweep": {"p_tx_db": list(cfg.sweep_p_tx_db)},
        "eval": {"n_blk": cfg.eval_n_blk, "n": cfg.eval_n,
                 "ub_memory": cfg.ub_memory},
        "seed": cfg.seed,
        "output_dir": cfg.output_dir,
    }
    if cfg.channel.fiber_length_km is not None:
        out["channel"]["fiber"] = {
            "length_km": cfg.channel.fiber_length_km,
            "beta2_s2_per_km": cfg.channel.fiber_beta2_s2_per_km,
            "carrier_nm": cfg.channel.fiber_carrier_nm,
        }
    return out


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(resolved_dict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# YAML key of each ChannelConfig field whose value its checks can reject
_CHANNEL_KEYS = {"symbol_rate": "channel.symbol_rate",
                 "n_os": "channel.n_os", "n_sim": "channel.n_sim",
                 "noise_kind": "channel.noise.kind",
                 "noise_variance": "channel.noise.variance",
                 "precoding": "channel.precoding",
                 "p": "channel.rapp.p", "x_sat": "channel.rapp.x_sat"}


def _channel_parts(c: ChannelSection):
    """Channel config, transmit pulse and receiver filter of a channel
    section; a value they reject raises ConfigError naming its key."""
    fiber = None
    if c.fiber_length_km is not None:
        fiber = ch.FiberParams(length_km=c.fiber_length_km,
                               beta2_s2_per_km=c.fiber_beta2_s2_per_km,
                               carrier_nm=c.fiber_carrier_nm)
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
            nonlinearity=nonl, fiber=fiber, noise_kind=c.noise_kind,
            noise_variance=c.noise_variance, precoding=c.precoding)
        g = ch.build_pulse(config, c.k_g)
    except ch.ChannelConfigError as exc:
        raise ConfigError(f"{_CHANNEL_KEYS[exc.field]}: {exc}") from exc
    except ValueError as exc:
        # with the config valid, only the pulse's tap count is left to reject
        raise ConfigError(f"channel.k_g: {exc}") from exc
    h = _domain_check("channel.k_h",
                      lambda: ch.brickwall_receiver(c.n_sim, c.k_h))
    return config, g, h


def build_channel(cfg: ExperimentConfig) -> ch.DiscreteChannel:
    """Unscaled channel; sweep points apply with_transmit_power_db."""
    config, g, h = _channel_parts(cfg.channel)
    return ch.make_channel(config, g=g, h=h)
