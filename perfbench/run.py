"""bgprel benchmark: runs one workload through the real ``bgprel`` CLI,
checks every output, and prints its metrics.

    python3 perfbench/run.py --workload infer-5x --seed 3 --seconds 1 --trace 0

Run from the root of a checkout.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a separate
traced run with ``--trace 1``.  ``--write-pins`` regenerates
``pins.json`` after a deliberate change to ``bgprel synth``.

Each run builds its inputs with ``bgprel synth`` from a synth seed picked
by ``--seed`` out of SEED_POOL; the SHA-256 of every input file is pinned
per pool seed, so a change to the generator cannot quietly change a
workload.  Every bgprel command is one child process with the BLAS thread
count pinned, started one at a time, reading a fresh copy of the inputs
and writing to a fresh output directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import inputs
import score
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
PINS = HERE / "pins.json"

BLAS_THREADS = 1
SEED_POOL = (1, 2, 3, 4, 5, 6, 7, 8)
CHILD_TIMEOUT_S = 150.0
EPOCHS = 200  # bgprel's default; history.csv has one row per epoch


@dataclass(frozen=True)
class Command:
    """One bgprel invocation of a workload and how to check its output."""

    kind: str  # train | predict | sweep
    argv: list[str]
    out: Path
    grid_size: int = 0
    timed: bool = True  # counts toward wall_s and peak_rss_mb


@dataclass(frozen=True)
class Workload:
    synth_args: list[str]
    raw_dump: bool
    commands: Callable[[Path, Path, int], list[Command]]
    # set-ups per measured run, setup_s being their median; a 5x set-up
    # takes 10-16 s, so infer-5x makes two to keep a full measurement round
    # of both workloads (tens of runs each) inside its time budget
    setup_repeats: int


def _train_predict(data: Path, out: Path, seed: int, extra: list[str],
                   timed: bool = True) -> list[Command]:
    train_out, predict_out = out / "train", out / "predict"
    return [
        Command("train", ["train", "--data", str(data), *extra, "--mode", "multi",
                          "--seed", str(seed), "--out", str(train_out)], train_out,
                timed=timed),
        Command("predict", ["predict", "--checkpoint", str(train_out / "checkpoint.json"),
                            "--data", str(data), *extra, "--out", str(predict_out)],
                predict_out, timed=timed),
    ]


def infer_commands(data: Path, out: Path, seed: int) -> list[Command]:
    return _train_predict(data, out, seed, ["--alloc", str(data / inputs.ALLOC_FILE)])


def sweep_commands(data: Path, out: Path, seed: int) -> list[Command]:
    multi, binary = out / "sweep-multi", out / "sweep-binary"
    return [
        Command("sweep", ["sweep", "--data", str(data), "--mode", "multi",
                          "--lr", "0.01,0.05,0.1", "--wd", "0,5e-4",
                          "--seed", str(seed), "--out", str(multi)], multi, 6),
        Command("sweep", ["sweep", "--data", str(data), "--mode", "binary",
                          "--lr", "0.05,0.1", "--wd", "0,5e-4",
                          "--seed", str(seed), "--out", str(binary)], binary, 4),
        # Every workload reports the F1 metrics, so sweep-1x also trains and
        # scores the model a user keeps after tuning.  Only the sweeps are
        # timed: they are the workload.
        *_train_predict(data, out, seed, [], timed=False),
    ]


WORKLOADS = {
    "infer-5x": Workload(
        synth_args=["--n-tier1", "40", "--n-mid", "2500", "--n-stub", "4000",
                    "--n-ixp", "150", "--n-orgs", "500", "--paths-per-vp", "7500",
                    "--perturbation", "0.03"],
        raw_dump=True,
        commands=infer_commands,
        setup_repeats=2,
    ),
    "sweep-1x": Workload(
        synth_args=["--perturbation", "0.03"],
        raw_dump=False,
        commands=sweep_commands,
        setup_repeats=3,
    ),
}

# output files whose bytes must repeat across runs of one commit
DIGESTED = {
    "train": ("checkpoint.json", "history.csv", "metrics.json"),
    "predict": ("predictions.csv",),
    "sweep": ("sweep.csv", "sweep.json"),
}


class Refused(Exception):
    """The benchmark cannot produce a trustworthy result."""


# -- child processes -----------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


@dataclass
class ChildResult:
    code: int
    wall_s: float
    maxrss_mb: float
    user_s: float
    sys_s: float
    minor_faults: int


def run_child(argv: list[str], log: Path) -> ChildResult:
    """Run one process to completion, with its own rusage."""
    started = time.perf_counter()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted or terminated: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, ru.ru_maxrss / 1024.0,
                       ru.ru_utime, ru.ru_stime, ru.ru_minflt)


def bgprel_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "bgprel.cli", *args]


def traced_argv(args: list[str], spans: Path) -> list[str]:
    return [sys.executable, str(HERE / "tracing.py"), repr(time.time()),
            str(spans), "--", *args]


# -- inputs --------------------------------------------------------------


@dataclass
class Bundle:
    data: Path  # what the program reads
    truth: Path  # planted labels, kept away from the program
    clean_paths: Path
    expected_ingest: inputs.IngestCounts
    setup_s: float


def setup(workload: Workload, pool_seed: int, work: Path, spans: Path | None) -> Bundle:
    """Synth plus, for raw-dump workloads, the rewrite; timed together."""
    if work.exists():
        shutil.rmtree(work)
    data = work / "data"
    work.mkdir(parents=True)
    args = ["synth", *workload.synth_args, "--seed", str(pool_seed), "--out", str(data)]
    started = time.perf_counter()
    argv = bgprel_argv(args) if spans is None else traced_argv(args, spans)
    result = run_child(argv, work / "synth.log")
    if result.code != 0:
        tail = (work / "synth.log").read_text(errors="replace")[-2000:]
        raise Refused(f"bgprel synth exited {result.code}:\n{tail}")
    if workload.raw_dump:
        clean = work / "paths_clean.txt"
        os.replace(data / "paths.txt", clean)
        expected = inputs.rewrite_bundle(data, clean, pool_seed)
    else:
        clean = data / "paths.txt"
    elapsed = time.perf_counter() - started
    if not workload.raw_dump:
        with open(clean, encoding="utf-8") as fh:
            expected = inputs.IngestCounts(parsed=sum(1 for _ in fh))
    # synth's own manifest records a wall time, so it is not an input
    (data / "manifest.json").unlink()
    os.replace(data / "truth.csv", work / "truth.csv")
    return Bundle(data, work / "truth.csv", clean, expected, elapsed)


def bundle_digests(bundle: Bundle) -> dict[str, str]:
    return {**inputs.digest_dir(bundle.data), "truth.csv": inputs.sha256_file(bundle.truth)}


def check_pins(name: str, pool_seed: int, bundle: Bundle) -> None:
    pinned = json.loads(PINS.read_text(encoding="utf-8")).get(name, {}).get(str(pool_seed))
    if pinned is None:
        raise Refused(f"pins.json has no digests for {name} synth seed {pool_seed}")
    got = bundle_digests(bundle)
    if got != pinned:
        diff = sorted(k for k in set(got) | set(pinned) if got.get(k) != pinned.get(k))
        raise Refused(
            f"{name} inputs for synth seed {pool_seed} differ from pins.json in "
            f"{diff}; bgprel synth changed, so this commit's workload is not "
            "the benchmark's workload")


# -- one pass of a workload ------------------------------------------------


@dataclass
class Pass:
    """One run of a workload's command sequence on a fresh copy of the inputs."""

    work: Path
    traced: bool
    commands: list[Command]
    results: list[ChildResult] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)  # per traced command

    @classmethod
    def start(cls, workload: Workload, bundle: Bundle, pool_seed: int, work: Path,
              traced: bool) -> "Pass":
        if work.exists():
            shutil.rmtree(work)
        shutil.copytree(bundle.data, work / "input")
        return cls(work, traced, workload.commands(work / "input", work / "out", pool_seed))

    @property
    def timed(self) -> list[ChildResult]:
        return [r for r, c in zip(self.results, self.commands) if c.timed]

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.timed)

    @property
    def ok(self) -> bool:
        return (len(self.results) == len(self.commands) and not self.problems
                and all(r.code == 0 for r in self.results))

    def step(self) -> bool:
        """Run the next command; False when it fails."""
        i = len(self.results)
        cmd = self.commands[i]
        spans = self.work / f"spans-{i}.json"
        argv = traced_argv(cmd.argv, spans) if self.traced else bgprel_argv(cmd.argv)
        result = run_child(argv, self.work / f"cmd-{i}.log")
        self.results.append(result)
        if result.code != 0:
            return False
        if self.traced:
            doc = json.loads(spans.read_text(encoding="utf-8"))
            doc["rusage"] = {"user_s": result.user_s, "sys_s": result.sys_s,
                             "minor_faults": result.minor_faults}
            self.spans.append(doc)
        return True


def run_interleaved(passes: list[Pass], bundle: Bundle) -> None:
    """Run the passes command by command (the first command of each pass,
    then the second, ...), so host load that drifts over seconds hits the
    traced and untraced pass alike; then check every output."""
    for _ in passes[0].commands:
        for p in passes:
            if not p.step():
                return
    edges = inputs.observed_edges(bundle.clean_paths)
    for p in passes:
        for cmd in p.commands:
            p.problems += check_output(cmd, edges)


def _csv_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def check_output(cmd: Command, edges: set[tuple[int, int]]) -> list[str]:
    missing = [f for f in DIGESTED[cmd.kind] if not (cmd.out / f).is_file()]
    if missing:
        return [f"{cmd.kind}: missing {missing}"]
    if cmd.kind == "train" and _csv_rows(cmd.out / "history.csv") != EPOCHS:
        return [f"train: history.csv does not have {EPOCHS} rows"]
    if cmd.kind == "predict":
        try:
            pairs = set(score.read_predictions(cmd.out / "predictions.csv"))
        except ValueError as exc:
            return [f"predict: {exc}"]
        if pairs != edges:
            return [f"predict: {len(pairs)} predicted pairs, {len(edges)} observed "
                    f"edges, {len(pairs ^ edges)} differ"]
    if cmd.kind == "sweep":
        rows = _csv_rows(cmd.out / "sweep.csv")
        doc_rows = len(json.loads((cmd.out / "sweep.json").read_text())["rows"])
        if rows != cmd.grid_size or doc_rows != cmd.grid_size:
            return [f"sweep: {rows} csv / {doc_rows} json rows for "
                    f"{cmd.grid_size} grid points"]
    return []


def output_digests(p: Pass) -> dict[str, str]:
    return {
        f"{cmd.out.name}/{f}": inputs.sha256_file(cmd.out / f)
        for cmd in p.commands for f in DIGESTED[cmd.kind]
    }


def program_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [ROOT / "pyproject.toml"]:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def check_repeatable(name: str, pool_seed: int, digests: dict[str, str]) -> list[str]:
    """Output bytes must match every earlier run of the same program
    source on the same workload and seed in this checkout."""
    STATE.mkdir(exist_ok=True)
    state_file = STATE / "digests.json"
    state = json.loads(state_file.read_text()) if state_file.is_file() else {}
    key = f"{program_fingerprint()}:{name}:{pool_seed}:blas{BLAS_THREADS}"
    seen = state.setdefault(key, digests)
    if seen != digests:
        return [f"output bytes differ from an earlier run of this commit: "
                f"{sorted(k for k in digests if seen.get(k) != digests[k])}"]
    tmp = state_file.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    os.replace(tmp, state_file)
    return []


# -- environment -----------------------------------------------------------

_PROBE = r"""
import ctypes, glob, json, os, platform, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*")):
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None:
            threads = fn()
sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
                  "scipy_blas": f"{sblas['name']} {sblas['version']}",
                  "blas_threads_runtime": threads}))
"""


def environment() -> dict:
    out = subprocess.run([sys.executable, "-c", _PROBE], env=child_env(),
                         capture_output=True, text=True, timeout=60, check=True)
    env = json.loads(out.stdout)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    env.update(blas_threads_pinned=BLAS_THREADS, nproc=len(os.sched_getaffinity(0)),
               cpu_count=os.cpu_count(), cpu_model=cpu, platform=platform.platform())
    return env


# -- the two modes ---------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measured_run(name: str, pool_seed: int, seconds: float, work: Path) -> dict:
    workload = WORKLOADS[name]
    setups = []
    for r in range(workload.setup_repeats):
        bundle = setup(workload, pool_seed, work / f"setup-{r}", None)
        check_pins(name, pool_seed, bundle)
        setups.append(bundle.setup_s)
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while not passes or (passes[-1].ok and time.perf_counter() < deadline):
        passes.append(Pass.start(workload, bundle, pool_seed,
                                 work / f"pass-{len(passes)}", traced=False))
        run_interleaved(passes[-1:], bundle)
    print("wall_s per pass: " + " ".join(f"{p.wall_s:.3f}" for p in passes))
    problems = [msg for p in passes for msg in p.problems]
    last = passes[-1]
    truth_f1 = test_f1 = 0.0
    scores = {}
    if last.ok:
        for p in passes:
            problems += check_repeatable(name, pool_seed, output_digests(p))
        train_out = next(c.out for c in last.commands if c.kind == "train")
        predict_out = next(c.out for c in last.commands if c.kind == "predict")
        truth = score.score_predictions(
            score.read_predictions(predict_out / "predictions.csv"),
            score.read_truth(bundle.truth))
        test = score.score_test_split(train_out / "metrics.json")
        print(truth.describe("truth_macro_f1"))
        print(test.describe("test_macro_f1"))
        truth_f1, test_f1 = truth.macro_f1, test.macro_f1
        scores = {"truth_macro_f1": asdict(truth), "test_macro_f1": asdict(test)}
    return {
        "passes": passes,
        "problems": problems,
        "scores": scores,
        "metrics": {
            "wall_s": metric(statistics.median(p.wall_s for p in passes), "s"),
            "peak_rss_mb": metric(statistics.median(
                max(r.maxrss_mb for r in p.timed) for p in passes), "MB"),
            "setup_s": metric(statistics.median(setups), "s"),
            "truth_macro_f1": metric(truth_f1, "ratio"),
            "test_macro_f1": metric(test_f1, "ratio"),
        },
    }


def traced_run(name: str, pool_seed: int, work: Path) -> dict:
    workload = WORKLOADS[name]
    synth_spans = work / "synth-spans.json"
    bundle = setup(workload, pool_seed, work / "setup", synth_spans)
    check_pins(name, pool_seed, bundle)
    plain = Pass.start(workload, bundle, pool_seed, work / "untraced", traced=False)
    traced = Pass.start(workload, bundle, pool_seed, work / "traced", traced=True)
    run_interleaved([plain, traced], bundle)
    problems = plain.problems + traced.problems
    passes = [plain, traced]
    if not (plain.ok and traced.ok):
        return {"passes": passes, "problems": problems, "metrics": {}}
    a, b = output_digests(plain), output_digests(traced)
    if a != b:
        problems.append(f"traced outputs differ from untraced: "
                        f"{sorted(k for k in a if a[k] != b[k])}")
    problems += check_repeatable(name, pool_seed, a)
    synth_doc = json.loads(synth_spans.read_text(encoding="utf-8"))
    layers = tracing.layer_metrics(traced.spans, synth_doc["spans"])
    expected = bundle.expected_ingest.as_dict()
    for doc in traced.spans:
        for span in doc["spans"]:
            if span[0] == "ingest.ingest_file":
                got = {k: span[4][k] for k in expected}
                if got != expected:
                    problems.append(f"ingest counts {got} != expected {expected}")
    layers["trace.overhead_s"] = traced.wall_s - plain.wall_s
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return {"passes": passes, "problems": problems,
            "metrics": {k: metric(layers[k], units[k]) for k in units}}


def write_pins() -> None:
    pins: dict = {}
    work = STATE / "pins"
    for name, workload in WORKLOADS.items():
        pins[name] = {}
        for pool_seed in SEED_POOL:
            bundle = setup(workload, pool_seed, work, None)
            pins[name][str(pool_seed)] = bundle_digests(bundle)
            print(f"{name} seed {pool_seed}: {len(pins[name][str(pool_seed)])} files",
                  flush=True)
    shutil.rmtree(work)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    # a terminated benchmark still stops its child and removes its work dir
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "bgprel" / "cli.py").is_file():
        print(f"error: no bgprel sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_pins:
        write_pins()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True)
    pool_seed = SEED_POOL[args.seed % len(SEED_POOL)]
    work = STATE / f"work-{args.workload}-{os.getpid()}"
    try:
        env = environment()
        if args.trace:
            out = traced_run(args.workload, pool_seed, work)
        else:
            out = measured_run(args.workload, pool_seed, args.seconds, work)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    passes: list[Pass] = out["passes"]
    attempted = sum(len(p.commands) for p in passes)
    failed = sum(len(p.commands) - sum(r.code == 0 for r in p.results) for p in passes)
    # a check that fails fails an operation; never count more than were run
    failed = min(attempted, failed + len(out["problems"]))
    for msg in out["problems"]:
        print(f"check failed: {msg}")
    record = {"workload": args.workload, "seed": args.seed, "synth_seed": pool_seed,
              "trace": args.trace, "environment": env, "metrics": out["metrics"],
              "scores": out.get("scores", {}), "problems": out["problems"]}
    print("environment: " + json.dumps(env, sort_keys=True))
    (STATE / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
