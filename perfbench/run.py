"""nlsic benchmark: closed-loop runs of the `nlsic` CLI on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree of the repository.  One client runs the
workload's commands one at a time, each in a fresh process with the source
tree's ``src`` on PYTHONPATH, and times them from outside, as long as the
next iteration is expected to end within S seconds.  The config is generated
from the seed, so one seed gives one set of inputs.  Every iteration's
rates.csv is checked (see workloads.py), and all iterations of one run must
produce the same bytes.

--trace 0 reports the end-to-end metrics; the child processes run without
any instrumentation.  --trace 1 alternates untraced and traced iterations; a
traced iteration runs the same commands under perfbench/child.py, which wraps
every layer, and the report gives the per-layer metrics of layers.py plus the
tracing overhead.  Traced and untraced rates.csv must be byte-identical.

The speed of a shared host drifts, by up to half over seconds to minutes,
so an untraced run times every process against its neighbours: after each
command and each set-up probe it runs `child.py calibrate`, a fixed piece of
work that uses no nlsic code, and divides the process's wall time by the
mean CPU time of the calibration runs just before and after it.  The timing
metrics are medians of these ratios over the run, times CAL_REF_S: seconds
on a host where the calibration takes CAL_REF_S of CPU time.  wall_s is the
median over iterations of the sum of the commands' ratios, apps_per_s
divides the APP rows of one evaluate by its median ratio, and setup_s is
the median set-up probe.  peak_rss_mb is the median of the iterations'
peaks.  The raw walls are printed on the lines before the result.

BLAS thread counts are pinned to 1 for the children and NLSIC_WORKERS is
removed from their environment.  Scratch files live in .perfbench/ under the
current directory.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, check_rates, load_reference  # noqa: E402

WORK_DIR = ".perfbench"
SETUP_PROBES = 10
CAL_REF_S = 0.35    # calibration CPU time on the reference host
CHILD_TIMEOUT_S = 120.0
RUN_CAP_S = 140.0   # no new iteration past this, to end within 180 s
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
END_TO_END = {"wall_s": "s", "setup_s": "s", "apps_per_s": "1/s",
              "peak_rss_mb": "MB"}


def child_env(root: Path, work: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NLSIC_WORKERS"}
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(work)
    return env


def run_child(argv, cwd: Path, env: dict, log_stem: Path):
    """Run one process to completion; returns (exit code, wall seconds,
    peak RSS in KiB, CPU seconds).  Its output goes to log_stem.out and
    log_stem.err.

    A child's ru_maxrss starts from this process's own peak RSS (exec records
    the high-water mark of the address space it replaces), so this process
    imports neither numpy nor scipy before its last measured child."""
    with open(log_stem.with_suffix(".out"), "wb") as out, \
            open(log_stem.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss,
            usage.ru_utime + usage.ru_stime)


def environment(root: Path, bench: "Bench") -> dict:
    """Numeric environment of the run; the src line count is information."""
    status, _, _, err = bench.child(
        [sys.executable, str(HERE / "child.py"), "env"])
    if status != 0:
        raise RuntimeError(f"environment probe exited {status}: {err}")
    numeric = json.loads(bench.last_output())
    src = sorted((root / "src" / "nlsic").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **numeric,
        "blas_threads_outer": {k: os.environ.get(k) for k in PINNED_THREADS},
        "blas_threads_children": PINNED_THREADS,
        "src_lines": sum(len(p.read_text().splitlines()) for p in src),
        "code_hash": hashlib.sha256(
            b"".join(p.name.encode() + p.read_bytes() for p in src)
        ).hexdigest()[:12],
    }


class Bench:
    def __init__(self, root: Path, name: str, seed: int):
        import yaml

        self.root = root
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = root / WORK_DIR / f"{name}-{seed}"
        if self.work.exists():
            shutil.rmtree(self.work)
        (self.work / "logs").mkdir(parents=True)
        (self.work / "spans").mkdir()
        self.config = self.work / "exp.yaml"
        self.config.write_text(yaml.safe_dump(
            self.workload.config_for(seed), sort_keys=False))
        self.env = child_env(root, self.work)
        self.reference = load_reference()
        self.n_runs = 0
        self.last_cpu = 0.0    # CPU seconds of the latest child
        self.last_cal = None   # CPU seconds of the latest calibration run
        self.cal_cpus = []

    def calibrate(self) -> float:
        """CPU seconds of one calibration run.  Its CPU time, not its wall,
        measures the host's speed: time the calibration spends descheduled
        is noise of the moment, not speed."""
        status, _, _, err = self.child(
            [sys.executable, str(HERE / "child.py"), "calibrate"])
        if status != 0:
            raise RuntimeError(f"calibration exited {status}: {err}")
        self.last_cal = self.last_cpu
        self.cal_cpus.append(self.last_cpu)
        return self.last_cpu

    def relative(self, wall: float) -> float:
        """wall over the mean CPU time of the calibrations before and after
        it."""
        before = self.last_cal
        return wall / (0.5 * (before + self.calibrate()))

    def child(self, argv):
        self.n_runs += 1
        stem = self.work / "logs" / f"{self.n_runs:04d}"
        status, wall, rss, self.last_cpu = run_child(argv, self.work,
                                                     self.env, stem)
        err = stem.with_suffix(".err").read_text(errors="replace").strip()
        return status, wall, rss, err.splitlines()[-1:] if err else []

    def last_output(self) -> str:
        return (self.work / "logs" / f"{self.n_runs:04d}.out").read_text()

    def setup_probe(self, calibrated: bool = False):
        """Wall time of one set-up probe; with `calibrated`, its ratio to
        the calibration runs around it (see relative)."""
        status, wall, _, err = self.child(
            [sys.executable, str(HERE / "child.py"), "setup", str(self.config)])
        origin = self.last_output()
        if status != 0:
            raise RuntimeError(f"set-up probe exited {status}: {err}")
        if not origin.startswith(str(self.root / "src")):
            raise RuntimeError(f"nlsic imported from {origin.strip()}, "
                               f"not from {self.root / 'src'}")
        return self.relative(wall) if calibrated else wall

    def iteration(self, traced: bool, index: int,
                  calibrated: bool = False) -> dict:
        """Run the workload's commands once on a clean output directory.
        With `calibrated`, each command is followed by a calibration run
        and its ratio to the calibrations around it is kept in "ratios"."""
        shutil.rmtree(self.work / "out", ignore_errors=True)
        it = {"wall": 0.0, "walls": {}, "ratios": {}, "rss_kb": 0,
              "spans": [], "problems": [], "sha": None, "traced": traced,
              "crashed": False}
        for cmd in self.workload.commands:
            args = [cmd, "-c", str(self.config)]
            if traced:
                spans = self.work / "spans" / f"{index:04d}-{cmd}.npz"
                it["spans"].append(spans)
                argv = [sys.executable, str(HERE / "child.py"), "trace",
                        str(spans), f"{self.seed}-{index}-{cmd}", *args]
            else:
                argv = [sys.executable, "-m", "nlsic.cli", *args]
            status, wall, rss, err = self.child(argv)
            it["wall"] += wall
            it["walls"][cmd] = wall
            it["rss_kb"] = max(it["rss_kb"], rss)
            if calibrated and status == 0:
                it["ratios"][cmd] = self.relative(wall)
            if status != 0:
                it["problems"].append(f"{cmd} exited {status}: {err}")
                it["crashed"] = True
                return it
        rates = self.rates_path()
        it["problems"] = check_rates(self.workload, rates, self.reference)
        if rates.is_file():
            it["sha"] = hashlib.sha256(rates.read_bytes()).hexdigest()
        return it

    def rates_path(self) -> Path:
        runs = sorted((self.work / "out").glob("*/rates.csv"))
        return runs[0] if len(runs) == 1 else self.work / "out" / "rates.csv"


def median(values):
    return float(statistics.median(values)) if values else 0.0


def fastest(values):
    return float(min(values)) if values else 0.0


def spread(values) -> float:
    """Interquartile range over median, for the report lines."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def run(root: Path, name: str, seed: int, seconds: float, trace: bool):
    """One benchmark run; returns (result object, report lines)."""
    bench = Bench(root, name, seed)
    env = environment(root, bench)
    lines = [f"env {json.dumps(env, sort_keys=True)}"]
    # set-up probes are spread over the run, one after each untraced
    # iteration, so that they see the same machine as the iterations
    setup = []
    if not trace:
        bench.setup_probe()   # untimed: compiles bytecode, warms file cache
        bench.calibrate()     # untimed warm-up of the calibration
        bench.calibrate()
    iters = []
    start = time.perf_counter()
    while True:
        traced = trace and len(iters) % 2 == 1
        t0 = time.perf_counter()
        iters.append(bench.iteration(traced, len(iters), calibrated=not trace))
        t1 = time.perf_counter()
        if not trace:
            setup.append(bench.setup_probe(calibrated=True))
        if iters[-1]["crashed"]:
            break  # a crashing program would only crash again
        # the next iteration is expected to take as long as the last one,
        # and the set-up probes still missing as long as the last probe
        t2 = time.perf_counter()
        missing = max(SETUP_PROBES - len(setup) - 1, 0) if not trace else 0
        ends = t2 - start + (t2 - t0) + missing * (t2 - t1)
        if ends > RUN_CAP_S:
            break
        if ends > seconds and (not trace or len(iters) >= 2):
            break
    while len(setup) < SETUP_PROBES and not trace:
        setup.append(bench.setup_probe(calibrated=True))

    failed = [it for it in iters if it["problems"]]
    for it in failed:
        lines.append(f"FAILED iteration: {'; '.join(it['problems'][:3])}")
    shas = sorted({it["sha"] for it in iters if it["sha"]})
    correct = not failed and len(shas) == 1
    if len(shas) > 1:
        lines.append(f"FLAG rates.csv differs between iterations of seed "
                     f"{seed}: {shas}")
    lines += flag_across_runs(bench, env["code_hash"], shas)
    lines.append(f"rates.csv sha256 {shas[0] if len(shas) == 1 else shas}")

    ok = [it for it in iters if not it["problems"]]
    plain = [it for it in ok if not it["traced"]]
    if trace:
        import layers

        traced_ok = [it for it in ok if it["traced"]]
        overhead = (fastest([it["wall"] for it in traced_ok])
                    / fastest([it["wall"] for it in plain]) - 1.0
                    if traced_ok and plain else 0.0)
        values = layers.per_layer_metrics(
            [(it["wall"], it["spans"]) for it in traced_ok], overhead)
        units = {k: u for k, (u, _) in layers.PER_LAYER.items()}
    else:
        w = bench.workload
        walls = [sum(it["ratios"].values()) * CAL_REF_S for it in ok]
        cmd_s = {cmd: median([it["ratios"][cmd] * CAL_REF_S for it in ok])
                 for cmd in w.commands}
        values = {
            "wall_s": median(walls),
            "setup_s": median(setup) * CAL_REF_S,
            "apps_per_s": w.app_rows / cmd_s["evaluate"] if ok else 0.0,
            "peak_rss_mb": median([it["rss_kb"] / 1024.0 for it in ok]),
        }
        units = END_TO_END
        lines.append(f"samples: {len(ok)} iterations, {len(setup)} set-up "
                     f"probes; spread (IQR/median) wall_s {spread(walls):.3f}"
                     f", setup_s {spread(setup):.3f}")
        for cmd in w.commands:
            lines.append(f"{cmd} raw walls s: " + " ".join(
                f"{it['walls'][cmd]:.3f}" for it in ok))
        lines.append(f"calibration CPU s: median {median(bench.cal_cpus):.3f}"
                     f", fastest {fastest(bench.cal_cpus):.3f} over "
                     f"{len(bench.cal_cpus)}")
        if w.train_iters and ok:
            lines.append(f"train_iters_per_s {w.train_iters / cmd_s['train']}"
                         f" 1/s (train command, {w.train_iters} iterations)")
    lines.append(f"failed_frac {len(failed) / len(iters)} "
                 f"({len(failed)}/{len(iters)})")
    lines += [f"{k} {v} {units[k]}" for k, v in values.items()]
    result = {"correct": correct, "attempted": len(iters),
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in values.items()}}
    return result, lines


def flag_across_runs(bench: Bench, code_hash: str, shas: list) -> list:
    """Remember rates.csv per (workload, seed) in the scratch dir and flag a
    run whose bytes differ from the previous run of that seed, naming the
    code versions: a change with the same code is nondeterminism, one with
    new code is a change of output."""
    if len(shas) != 1:
        return []
    store = bench.root / WORK_DIR / "hashes.json"
    seen = json.loads(store.read_text()) if store.is_file() else {}
    key = f"{bench.workload.name}/{bench.seed}"
    now = {"sha": shas[0], "code": code_hash}
    lines = []
    before = seen.get(key, now)
    if before["sha"] != now["sha"]:
        lines.append(f"FLAG rates.csv of {key} changed: {before['sha']} "
                     f"(code {before['code']}) -> {now['sha']} "
                     f"(code {now['code']})")
    seen[key] = now
    store.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "nlsic" / "__init__.py").is_file():
        print(f"no nlsic source tree under {root} (expected "
              f"src/nlsic/__init__.py); run from the repository root",
              file=sys.stderr)
        return 2
    try:
        result, lines = run(root, args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except RuntimeError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
