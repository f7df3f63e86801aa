"""The benchmark's workloads and the correctness check of their output.

Each workload is one ``nlsic`` experiment config (minus seed and output
directory) plus the CLI commands that make a rate curve from it.  The
benchmark writes the config as YAML, runs the commands in fresh processes
and checks the ``rates.csv`` they leave behind.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

RATES_HEADER = ["detector", "p_tx_db", "stage", "rate", "stderr",
                "clamp_fraction", "flagged", "i_sic", "i_sic_stderr", "ub",
                "ub_stderr", "mults_per_app", "n_blk", "n", "config_hash"]


# The ROADMAP baseline channel: 4-ASK through a square-law detector, two
# samples per symbol, memory 3 (64 trellis states).
CHANNEL = {
    "alphabet": "4-ASK",
    "n_os": 2,
    "n_sim": 2,
    "nonlinearity": "square-law",
    "k_g": 7,
    "noise": {"kind": "real", "variance": 1.0},
    "precoding": "differential-phase",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple
    config: dict

    def config_for(self, seed: int) -> dict:
        """The experiment config the program reads; all randomness of a run
        derives from `seed`.  The output directory is relative so the config
        hash, and with it rates.csv, does not depend on where the run is."""
        return {**self.config, "seed": int(seed), "output_dir": "out"}

    @property
    def key(self) -> str:
        """Digest of the sized config; reference values are kept per key."""
        blob = json.dumps(self.config, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    @property
    def powers(self) -> list:
        return [float(p) for p in self.config["sweep"]["p_tx_db"]]

    @property
    def stages(self) -> int:
        return int(self.config["sic"]["stages"])

    @property
    def app_rows(self) -> int:
        """APP rows one evaluate produces: every symbol of every block at
        every sweep point gets one row, whatever the stage count."""
        ev = self.config["eval"]
        return len(self.powers) * ev["n_blk"] * ev["n"]

    @property
    def has_ub(self) -> bool:
        """Whether evaluate estimates the upper bound: always with the fba
        detector, otherwise when eval.ub_memory is set."""
        return self.config["eval"].get("ub_memory") is not None or \
            self.config["detector"]["kind"] == "fba"

    @property
    def train_iters(self) -> int:
        if "train" not in self.commands:
            return 0
        return (len(self.powers) * self.stages
                * self.config["detector"]["rnn"]["n_iter"])


WORKLOADS = {w.name: w for w in [
    Workload(
        name="fba-sic",
        why="ROADMAP baseline evaluate: 4-stage SIC with the 64-state trellis "
            "and its upper bound; fba_app and fba_ub dominate, training is "
            "never called",
        commands=("evaluate",),
        config={
            "channel": CHANNEL,
            "sic": {"stages": 4},
            "detector": {"kind": "fba", "fba": {"memory": 3}},
            "sweep": {"p_tx_db": [0.0, 4.0, 8.0, 12.0]},
            "eval": {"n_blk": 5, "n": 96, "ub_memory": 3},
        }),
    Workload(
        name="rnn-sweep",
        why="train then evaluate the RNN detector over ascending powers with "
            "warm starts; the training steps take most of the time and the "
            "trellis is never called",
        commands=("train", "evaluate"),
        config={
            "channel": CHANNEL,
            "sic": {"stages": 2},
            "detector": {"kind": "rnn",
                         "rnn": {"l_y": 16, "l_ic": 4, "hidden": [32],
                                 "t_rnn": 32, "n_batch": 64, "n_iter": 60,
                                 "learn_rate": 0.003}},
            "sweep": {"p_tx_db": [4.0, 8.0]},
            "eval": {"n_blk": 32, "n": 96},
        }),
    Workload(
        name="gibbs-long",
        why="Gibbs detector, 64 chains and 20 sweeps on blocks 5x longer "
            "than fba-sic: per-bit mean_contexts calls; its pre-drawn "
            "uniforms are a fifth of peak RSS",
        commands=("evaluate",),
        config={
            "channel": CHANNEL,
            "sic": {"stages": 1},
            "detector": {"kind": "gibbs",
                         "gibbs": {"memory": 3, "n_iter": 20, "n_par": 64,
                                   "burn_in": 2}},
            "sweep": {"p_tx_db": [6.0]},
            "eval": {"n_blk": 2, "n": 512},
        }),
]}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check_rates(workload: Workload, path: Path, reference: dict) -> list:
    """Problems found in one rates.csv; an empty list means it passed.

    Checks the schema and row set and that every number is finite and in
    range.  Where reference.json holds an entry for this sized config, it
    also checks that each point's i_sic lies within the recorded tolerance
    and, where an upper bound is estimated, that i_sic does not exceed it by
    more than the recorded number of combined standard errors."""
    if not path.is_file():
        return [f"{path.name} missing"]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != RATES_HEADER:
        return [f"{path.name}: header {rows[0] if rows else None}"]
    body = rows[1:]
    want = len(workload.powers) * workload.stages
    if len(body) != want or any(len(r) != len(RATES_HEADER) for r in body):
        return [f"{path.name}: {len(body)} rows, expected {want} of "
                f"{len(RATES_HEADER)} fields"]
    ev = workload.config["eval"]
    det = workload.config["detector"]["kind"]
    bits = int(workload.config["channel"]["alphabet"].split("-")[0]) \
        .bit_length() - 1
    problems = []
    points = {}
    for r in body:
        rec = dict(zip(RATES_HEADER, r))
        where = f"p={rec['p_tx_db']} s={rec['stage']}"
        try:
            num = {k: float(rec[k]) for k in
                   ("p_tx_db", "stage", "rate", "stderr", "clamp_fraction",
                    "i_sic", "i_sic_stderr", "mults_per_app", "n_blk", "n")}
            if workload.has_ub:
                num["ub"] = float(rec["ub"])
                num["ub_stderr"] = float(rec["ub_stderr"])
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            continue
        if rec["detector"] != det or num["n_blk"] != ev["n_blk"] or \
                num["n"] != ev["n"]:
            problems.append(f"{where}: detector, n_blk or n differ from the "
                            f"config")
        bad = [k for k, v in num.items() if not math.isfinite(v)]
        if bad:
            problems.append(f"{where}: non-finite {bad}")
            continue
        if not num["rate"] <= bits + 1e-6 or not num["i_sic"] <= bits + 1e-6:
            problems.append(f"{where}: rate above {bits} bits")
        if num["stderr"] < 0 or num["i_sic_stderr"] < 0 or \
                not 0.0 <= num["clamp_fraction"] <= 1.0 or \
                num["mults_per_app"] <= 0:
            problems.append(f"{where}: stderr, clamp fraction or count "
                            f"out of range")
        points.setdefault(num["p_tx_db"], []).append(num)
    if problems:
        return problems
    if sorted(points) != sorted(workload.powers):
        return [f"sweep points {sorted(points)} != {sorted(workload.powers)}"]

    ref = reference.get(workload.name)
    if ref is not None and ref["key"] != workload.key:
        ref = None
    for p, recs in sorted(points.items()):
        i_sic = recs[0]["i_sic"]
        stage_mean = sum(r["rate"] for r in recs) / len(recs)
        if abs(i_sic - stage_mean) > 1e-5 or \
                sorted(r["stage"] for r in recs) != \
                list(range(1, workload.stages + 1)):
            problems.append(f"p={p}: stages do not average to i_sic")
        if ref is not None:
            k = ref["p_tx_db"].index(p)
            if abs(i_sic - ref["i_sic"][k]) > ref["tol"][k]:
                problems.append(f"p={p}: i_sic {i_sic:.4f} outside reference "
                                f"{ref['i_sic'][k]:.4f} +- {ref['tol'][k]:.4f}")
        if workload.has_ub and ref is not None:
            margin = ref["ub_sigmas"] * math.hypot(recs[0]["i_sic_stderr"],
                                                   recs[0]["ub_stderr"])
            if i_sic > recs[0]["ub"] + margin:
                problems.append(f"p={p}: i_sic {i_sic:.4f} above UB "
                                f"{recs[0]['ub']:.4f} + {margin:.4f}")
    return problems


def i_sic_by_point(path: Path) -> dict:
    """p_tx_db -> i_sic of one rates.csv."""
    with open(path, newline="") as fh:
        return {float(r["p_tx_db"]): float(r["i_sic"])
                for r in csv.DictReader(fh)}
