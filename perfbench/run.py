"""The repository benchmark: three workloads, each driven from outside
the program.

    python3 perfbench/run.py --workload fit-csv --seed 1 --seconds 35 \
        --trace 0

Run from the root of a source checkout.  ``--trace 0`` measures the
end-to-end metrics with the program untouched; ``--trace 1`` runs the
workload again in-process under the layer tracer (:mod:`tracer`) and
reports per-layer metrics instead.  Human-readable detail goes to
standard output first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Inputs are generated from ``--seed`` into ``.perfbench/cache`` and
reused by later runs with the same seed; generation counts toward no
metric.  Why each workload exists, what each metric means and which
layer should move which metric are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Function-2 data at the paper's defaults (5% perturbation; the CLI's
#: 50x50 bins and 16x8 threshold levels).  Half the ROADMAP's 1M-tuple
#: headline, so that a run's three fits take about half a minute on a
#: 2-core machine.
FIT_TUPLES = 500_000
FIT_REPEATS = 3
FIT_ARGS = ["--x", "age", "--y", "salary", "--rhs", "group",
            "--target", "A"]
STREAM_TUPLES = 300_000
#: Support 0.0002: at 50x50 bins the CLI default of 0.01 qualifies no
#: cell, so every refit would be empty.
STREAM_ARGS = ["--mode", "sliding", "--window", "20000",
               "--refit-every", "2000", "--min-support", "0.0002",
               "--min-confidence", "0.6"]
STREAM_REPEATS = 2
#: Largest region error (fraction of the age x salary domain) that the
#: fit-csv segmentation and stream-refit's final artefact may have: the
#: largest seen over seeds 1-30 and 201-210 (0.045 fit, 0.050 stream)
#: times 1.5.  Losing one of function 2's three true regions alone
#: costs 0.128.
REGION_ERROR_CEILING = 0.075
SERVE_MODEL_TUPLES = 100_000
SERVE_POINTS = 4096
#: Open-loop ladder (requests/s); each step sends at least 1000
#: requests so its p99 has ten samples beyond it.
LOW_RATE, HIGH_RATE = 100, 400
LADDER = (100, 200, 400, 600, 800, 1000, 1300, 1600, 2000)
STEP_REQUESTS = 1000
LATENCY_LIMIT_S = 0.010
#: The generator holds the low rate while its own p99 lateness stays
#: under one request interval.  A low-rate step where it fell behind
#: measured the machine's stalls, not the server, so it is run again; a
#: run whose every attempt fell behind is refused as invalid.
GEN_LATE_LIMIT_S = 1.0 / LOW_RATE
LOW_RATE_ATTEMPTS = 3
RELOAD_EVERY_S = 2.0
#: Workers ship metrics to the fleet view every 2 s (the default
#: ``--fleet-interval``); a scrape waits this long to see them.
FLEET_SETTLE_S = 2.5
CLOSED_REQUESTS = 3000
SETUP_REPEATS = 5
REQUEST_TIMEOUT_S = 5.0
CACHE_BYTES = 1_500_000_000
#: The load generator opens at most ``nproc`` connections.
CONNECTIONS = len(os.sched_getaffinity(0))

WORKLOADS = ("fit-csv", "stream-refit", "serve-predict")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
}

PER_LAYER = {
    **{f"{layer}.{kind}": "s"
       for layer in ("io", "bin", "window", "mine", "smooth", "bitop",
                     "merge", "prune", "verify", "optimizer", "refit",
                     "persist")
       for kind in ("busy_s", "self_s")},
    "io.tuples_per_s": "1/s",
    "window.tuples_expired": "count",
    "mine.cells_qualified": "count",
    "bitop.fragments": "count",
    "merge.fragments_in": "count",
    "merge.clusters_out": "count",
    "merge.hull_evals": "count",
    "merge.useful_ratio": "ratio",
    "verify.calls": "count",
    "verify.rows_touched": "count",
    "verify.useful_ratio": "ratio",
    "optimizer.trials": "count",
    "refit.publish_ratio": "ratio",
    "serve.server_p50_ms": "ms",
    "serve.server_p99_ms": "ms",
    "serve.transport_p50_ms": "ms",
    "serve.batch_size_mean": "count",
    "serve.batch_wait_ms": "ms",
    "serve.score_ms": "ms",
    "serve.scorer_cache_hit_ratio": "ratio",
    "serve.compile_s": "s",
    "serve.reloads": "count",
    "serve.shm_attach_fallbacks": "count",
    "serve.shed": "count",
    "fleet.publish_ms": "ms",
    "gen.late_p99_ms": "ms",
    "cli.unattributed_s": "s",
    "obs.trace_overhead": "ratio",
}


class InvalidRun(Exception):
    """The measurement itself is unusable (not a program regression)."""


class Outcome:
    """Operations attempted and failed, plus the problems behind them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def detail(message: str) -> None:
    print(message, flush=True)


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def vm_hwm_mb(pid: int) -> float:
    """A live process's peak resident set (VmHWM) in MB, 0 once gone.

    Unlike ``ru_maxrss``, VmHWM covers only the program's own address
    space: a child's ``ru_maxrss`` also counts the launching process's
    resident set, inherited over fork and exec.
    """
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    match = re.search(r"VmHWM:\s+(\d+) kB", status)
    return int(match.group(1)) / 1024.0 if match else 0.0


class Launch:
    """A child process whose stdout lines are time-stamped as they
    arrive; :meth:`finish` reaps it with its wall time and peak RSS."""

    def __init__(self, argv: list[str]):
        self.argv = argv
        self.lines: list[tuple[float, str]] = []
        self._arrived = threading.Condition()
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        self._stderr: list[str] = []
        self._readers = [
            threading.Thread(target=self._read_stdout, daemon=True),
            threading.Thread(target=self._read_stderr, daemon=True),
        ]
        for reader in self._readers:
            reader.start()
        self.wall = None
        self.peak_rss_mb = 0.0
        self.returncode = None

    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            with self._arrived:
                self.lines.append((time.perf_counter(), line.rstrip("\n")))
                self._arrived.notify_all()

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self._stderr.append(line)

    def wait_for(self, pattern: str, timeout: float) -> tuple[float, str]:
        """Block until a stdout line matches; returns (arrival, line)."""
        regex = re.compile(pattern)
        deadline = time.perf_counter() + timeout
        seen = 0
        with self._arrived:
            while True:
                for stamp, line in self.lines[seen:]:
                    if regex.search(line):
                        return stamp, line
                seen = len(self.lines)
                remaining = deadline - time.perf_counter()
                # stdout at EOF: the child exited without the line.
                # (No poll() here: finish() must be the one to reap.)
                if remaining <= 0 or not self._readers[0].is_alive():
                    raise RuntimeError(
                        f"{self.argv[:4]} never printed /{pattern}/: "
                        f"{self.stderr_tail()}")
                self._arrived.wait(min(remaining, 0.1))

    def stderr_tail(self) -> str:
        return "".join(self._stderr[-5:]).strip()

    def finish(self, timeout: float = 170.0) -> int:
        """Wait for exit; records wall time and the child's peak RSS.

        A thread blocks in ``waitpid``, so the exit is timed without
        polling.  Meanwhile VmHWM, a high-water mark, is read every
        50 ms, which misses only growth in the child's last moments.
        (Polling every 2 ms slowed the child by about 4%.)
        """
        exited: list[tuple[int, float]] = []
        reaper = threading.Thread(target=lambda: exited.append(
            (os.waitpid(self.proc.pid, 0)[1], time.perf_counter())))
        reaper.start()
        deadline = time.perf_counter() + timeout
        while reaper.is_alive():
            self.peak_rss_mb = max(self.peak_rss_mb,
                                   vm_hwm_mb(self.proc.pid))
            if time.perf_counter() > deadline:
                self.kill()
                deadline = float("inf")
            reaper.join(0.05)
        status, ended = exited[0]
        self.wall = ended - self.started
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        for reader in self._readers:
            reader.join(5.0)
        return self.returncode

    def kill(self) -> None:
        self._signal(signal.SIGKILL)

    def terminate(self) -> None:
        self._signal(signal.SIGTERM)

    def _signal(self, signum: int) -> None:
        # os.kill, not Popen.send_signal: that polls first and could reap
        # the child under finish()'s reaper thread.  Until finish() reaps
        # it the child is at worst a zombie, so its pid is still its own.
        if self.proc.returncode is None:
            try:
                os.kill(self.proc.pid, signum)
            except ProcessLookupError:
                pass


def arcs(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def child(*args: str, spans: Path | None = None,
          stream: Path | None = None) -> list[str]:
    argv = [sys.executable, str(HERE / "child.py")]
    if spans is not None:
        argv += ["--spans", str(spans)]
    if stream is not None:
        argv += ["--stream", str(stream)]
    return argv + ["--", *args]


def run_to_end(argv: list[str], outcome: Outcome | None = None) -> Launch:
    launch = Launch(argv)
    code = launch.finish()
    if outcome is not None:
        outcome.record([] if code == 0 else
                       [f"{argv[2:4]} exited {code}: "
                        f"{launch.stderr_tail()}"])
    return launch


def peak_rss_tree_mb(pid: int) -> float:
    """Largest VmHWM among ``pid`` and its direct children (MB)."""
    pids = [pid]
    try:
        children = Path(f"/proc/{pid}/task/{pid}/children").read_text()
        pids += [int(p) for p in children.split()]
    except OSError:
        pass
    return max(vm_hwm_mb(each) for each in pids)


# ----------------------------------------------------------------------
# Inputs (cached per seed; never timed)
# ----------------------------------------------------------------------
def cached(name: str, build) -> Path:
    """``WORK/cache/name``, built once by ``build(tmp_path)``.

    The least recently used entries are evicted once the cache holds
    more than ``CACHE_BYTES``.
    """
    target = WORK / "cache" / name
    if target.exists():
        os.utime(target)
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    build(tmp)
    os.replace(tmp, target)
    entries = sorted(target.parent.iterdir(),
                     key=lambda path: path.stat().st_mtime)
    total = sum(path.stat().st_size for path in entries)
    for path in entries:
        if total <= CACHE_BYTES or path == target:
            break
        total -= path.stat().st_size
        path.unlink()
    return target


def warm(path: Path) -> Path:
    """Read a file once so the timed runs all find it in the page cache."""
    with open(path, "rb") as handle:
        while handle.read(1 << 24):
            pass
    return path


def generated_csv(tuples: int, seed: int) -> Path:
    def build(tmp: Path) -> None:
        launch = run_to_end(arcs(
            "generate", str(tmp), "--tuples", str(tuples),
            "--function", "2", "--perturbation", "0.05",
            "--seed", str(seed)))
        if launch.returncode != 0:
            raise RuntimeError(f"arcs generate failed: "
                               f"{launch.stderr_tail()}")

    return cached(f"f2-{tuples}-seed{seed}.csv", build)


def served_models(seed: int) -> list[Path]:
    """Two ARCS fits of independent function-2 samples, as artefacts."""
    import repro
    from repro.core.arcs import ARCS
    from repro.persistence import save_segmentation

    paths = []
    for part in (0, 1):
        def build(tmp: Path, part=part) -> None:
            table = repro.generate_synthetic(repro.SyntheticConfig(
                n_tuples=SERVE_MODEL_TUPLES, function_id=2,
                seed=seed * 2 + part))
            result = ARCS().fit(table, "age", "salary", "group", "A")
            save_segmentation(result.segmentation, tmp,
                              bin_array=result.binner.bin_array)

        paths.append(cached(f"serve-seed{seed}-{part}.json", build))
    return paths


def region_check(paths: list[Path], workload: str,
                 outcome: Outcome) -> float:
    """Region error of the first of ``paths``.  Above the ceiling, or
    no segmentation at all, is a failed operation."""
    if not paths:
        outcome.record([f"{workload} left no segmentation to score"])
        return float("nan")
    error, problems = checks.region_quality(paths[0], REGION_ERROR_CEILING)
    outcome.record(problems)
    return error


def work_dir(tag: str) -> Path:
    path = WORK / "runs" / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# fit-csv
# ----------------------------------------------------------------------
TRIAL_LINE = "support>="
RESULT_LINE = "segmentation for "


def fit_once(data: Path, out: Path, outcome: Outcome) -> Launch:
    return run_to_end(arcs("fit", str(data), *FIT_ARGS, "--verbose",
                           "--save-segmentation", str(out)), outcome)


def trial_gaps(launch: Launch) -> list[float]:
    """Gaps between consecutive optimizer trials as printed by
    ``--verbose``; the summary that repeats the best trial is not one."""
    stamps = []
    for stamp, line in launch.lines:
        if line.startswith(RESULT_LINE):
            break
        if line.startswith(TRIAL_LINE):
            stamps.append(stamp)
    return [b - a for a, b in zip(stamps, stamps[1:])]


def noop_setup() -> float:
    launch = run_to_end(arcs("--version"))
    if launch.returncode != 0:
        raise RuntimeError(f"arcs --version failed: "
                           f"{launch.stderr_tail()}")
    return launch.wall


def fit_csv(seed: int, outcome: Outcome) -> dict:
    data = warm(generated_csv(FIT_TUPLES, seed))
    work = work_dir("fit")
    setups = [noop_setup() for _ in range(SETUP_REPEATS)]
    fits = [fit_once(data, work / f"seg-{index}.json", outcome)
            for index in range(FIT_REPEATS)]
    saved = sorted(work.glob("seg-*.json"))
    outcome.record(checks.same_segmentation(saved))
    error = region_check(saved[:1], "fit-csv", outcome)
    gaps = [gap for launch in fits for gap in trial_gaps(launch)]
    outcome.record([] if gaps else
                   ["no fit printed two optimizer trials"])
    trials = stats.summarize(ms(gaps or [0.0]))
    walls = [launch.wall for launch in fits]
    detail(f"fit-csv: {FIT_TUPLES:,} tuples, {len(fits)} fits, "
           f"run_s {fmt(walls)}")
    detail(f"  setup_s (no-op arcs start) {fmt(setups)}")
    detail(f"  peak_rss_mb {fmt([l.peak_rss_mb for l in fits])}")
    detail(f"  optimizer trial gaps: {trials.describe()}")
    detail(f"  region_error {error:.6f} (fraction of the age x salary "
           f"domain; at most {REGION_ERROR_CEILING:g} passes)")
    shutil.rmtree(work, ignore_errors=True)
    return {
        "setup_s": stats.median(setups),
        "run_s": stats.median(walls),
        "peak_rss_mb": stats.median([l.peak_rss_mb for l in fits]),
        "op_p50_ms": trials.p50,
    }


def fit_csv_traced(seed: int, outcome: Outcome) -> dict:
    data = warm(generated_csv(FIT_TUPLES, seed))
    work = work_dir("fit-trace")
    plain = fit_once(data, work / "plain.json", outcome)
    spans_dir, report = work / "spans", work / "report.json"
    traced = run_to_end(child("fit", str(data), *FIT_ARGS, "--verbose",
                              "--save-segmentation",
                              str(work / "traced.json"),
                              "--metrics-out", str(report),
                              spans=spans_dir), outcome)
    outcome.record(checks.same_segmentation(
        [work / "plain.json", work / "traced.json"]))
    metrics = cli_layer_metrics("fit-csv", plain, traced, spans_dir,
                                report, outcome)
    shutil.rmtree(work, ignore_errors=True)
    return metrics


def cli_layer_metrics(workload: str, plain: Launch, traced: Launch,
                      spans_dir: Path, report: Path,
                      outcome: Outcome) -> dict:
    """Per-layer metrics of a traced CLI run, with the time its run
    report leaves unexplained and the tracing overhead."""
    spans, counts = tracing.load_span_files(spans_dir)
    metrics = layer_metrics(spans, counts)
    try:
        root = json.loads(report.read_text())["duration_seconds"]
    except (OSError, ValueError, KeyError) as error:
        outcome.record([f"{workload}: no run report: {error!r}"])
        root = 0.0
    metrics["cli.unattributed_s"] = traced.wall - root
    metrics["obs.trace_overhead"] = traced.wall / plain.wall - 1.0
    detail(f"{workload} traced: run_s {traced.wall:.3f} (untraced "
           f"{plain.wall:.3f}); run report root span {root:.3f}s")
    return metrics


# ----------------------------------------------------------------------
# stream-refit
# ----------------------------------------------------------------------
WATCHING_LINE = r"^watching "


def watch(data: Path, models: Path, extra=(), **hooks) -> list[str]:
    return child("watch", str(data), *FIT_ARGS, "--models", str(models),
                 *STREAM_ARGS, *extra, **hooks)


def stream_once(data: Path, work: Path, tag: str, outcome: Outcome,
                spans: Path | None = None,
                metrics_out: Path | None = None) -> tuple[Launch, dict]:
    models = work / f"models-{tag}"
    models.mkdir()
    capture = work / f"capture-{tag}"
    extra = ["--metrics-out", str(metrics_out)] if metrics_out else []
    launch = Launch(watch(data, models, extra, spans=spans,
                          stream=capture))
    try:
        ready, _ = launch.wait_for(WATCHING_LINE, 170.0)
    except RuntimeError as error:
        launch.kill()
        ready = None
        outcome.record([str(error)])
    code = launch.finish()
    outcome.record([] if code == 0 else
                   [f"arcs watch exited {code}: {launch.stderr_tail()}"])
    try:
        result = json.loads((capture / "stream.json").read_text())
    except (OSError, ValueError) as error:
        outcome.record([f"arcs watch left no refit records: {error}"])
        result = {"refit_ingest_s": [], "records": []}
    else:
        outcome.record(checks.stream_artefacts(capture))
    result["setup_s"] = launch.wall if ready is None else (
        ready - launch.started)
    result["capture"] = capture
    return launch, result


def stream_setup(data: Path, work: Path, index: int) -> float:
    """Launch until the refitter is constructed ("watching" printed)."""
    models = work / f"setup-models-{index}"
    models.mkdir()
    launch = Launch(watch(data, models))
    try:
        ready, _ = launch.wait_for(WATCHING_LINE, 60.0)
    finally:
        launch.kill()
        launch.finish()
    return ready - launch.started


def stream_refit(seed: int, outcome: Outcome) -> dict:
    data = warm(generated_csv(STREAM_TUPLES, seed))
    work = work_dir("stream")
    setups = [stream_setup(data, work, i) for i in range(3)]
    runs = [stream_once(data, work, str(index), outcome)
            for index in range(STREAM_REPEATS)]
    setups += [result["setup_s"] for _, result in runs]
    shapes = {(len(r["records"]),
               sum(1 for rec in r["records"] if rec["published"]))
              for _, r in runs}
    outcome.record([] if len(shapes) == 1 else
                   [f"refit/publish counts differ across repetitions: "
                    f"{sorted(shapes)}"])
    ingests = [t for _, r in runs for t in r["refit_ingest_s"]]
    outcome.record([] if ingests else ["no ingest triggered a refit"])
    refits = stats.summarize(ms(ingests or [0.0]))
    published = sorted(runs[0][1]["capture"].glob("artefact-*.json"))
    error = region_check(published[-1:], "stream-refit", outcome)
    walls = [launch.wall for launch, _ in runs]
    refit_count, publish_count = max(shapes)
    detail(f"stream-refit: {STREAM_TUPLES:,} tuples, {len(runs)} "
           f"pipeline runs, run_s {fmt(walls)}")
    detail(f"  setup_s (launch to refitter constructed) {fmt(setups)}")
    detail(f"  peak_rss_mb {fmt([l.peak_rss_mb for l, _ in runs])}")
    detail(f"  refits {refit_count}, publishes {publish_count} per run; "
           f"refit-triggering ingest: {refits.describe()}")
    detail(f"  region_error {error:.6f} (final artefact; at most "
           f"{REGION_ERROR_CEILING:g} passes)")
    shutil.rmtree(work, ignore_errors=True)
    return {
        "setup_s": stats.median(setups),
        "run_s": stats.median(walls),
        "peak_rss_mb": stats.median([l.peak_rss_mb for l, _ in runs]),
        "op_p50_ms": refits.p50,
    }


def stream_refit_traced(seed: int, outcome: Outcome) -> dict:
    data = warm(generated_csv(STREAM_TUPLES, seed))
    work = work_dir("stream-trace")
    plain, _ = stream_once(data, work, "plain", outcome)
    spans_dir, report = work / "spans", work / "report.json"
    traced, _ = stream_once(data, work, "traced", outcome,
                            spans=spans_dir, metrics_out=report)
    metrics = cli_layer_metrics("stream-refit", plain, traced, spans_dir,
                                report, outcome)
    shutil.rmtree(work, ignore_errors=True)
    return metrics


# ----------------------------------------------------------------------
# serve-predict
# ----------------------------------------------------------------------
SERVING_LINE = r"^serving .* at (http://[^ ]+)"


class Client:
    """One keep-alive HTTP connection per slot; reconnects on error."""

    def __init__(self, url: str, slots: int):
        host, _, port = url.removeprefix("http://").partition(":")
        self.host, self.port = host, int(port)
        self.connections = [None] * slots

    def request(self, slot: int, method: str, path: str,
                payload=None) -> tuple[int, object]:
        connection = self.connections[slot]
        if connection is None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=REQUEST_TIMEOUT_S)
            self.connections[slot] = connection
        try:
            body = None if payload is None else json.dumps(payload)
            headers = ({"Content-Type": "application/json"}
                       if body is not None else {})
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            return response.status, json.loads(raw or b"{}")
        except (OSError, http.client.HTTPException, ValueError) as error:
            connection.close()
            self.connections[slot] = None
            return 0, {"error": repr(error)}

    def close(self) -> None:
        for connection in self.connections:
            if connection is not None:
                connection.close()


class Server:
    """One ``arcs serve --workers 2`` process and its readiness."""

    def __init__(self, models: Path, spans: Path | None = None):
        args = ("serve", str(models), "--port", "0", "--workers", "2")
        self.launch = Launch(child(*args, spans=spans) if spans
                             else arcs(*args))
        try:
            _, line = self.launch.wait_for(SERVING_LINE, 60.0)
        except RuntimeError:
            self.launch.kill()
            self.launch.finish()
            raise
        self.url = re.search(SERVING_LINE, line).group(1)
        self.client = Client(self.url, 1)
        deadline = time.perf_counter() + 60.0
        workers_seen: set = set()
        while True:
            # A fresh connection each poll, so the kernel can hand it
            # to either worker.
            self.client.close()
            self.client.connections[0] = None
            status, body = self.client.request(0, "GET", "/healthz")
            if status == 200 and body.get("models", 0) >= 1:
                workers_seen.add(body.get("worker"))
            if {0, 1} <= workers_seen:
                break
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError(f"server never became ready: "
                                   f"{self.launch.stderr_tail()}")
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - self.launch.started

    def scrape(self) -> dict:
        """The fleet-wide ``/metrics`` snapshot, once every worker has
        shipped the counts of the traffic sent so far."""
        time.sleep(FLEET_SETTLE_S)
        status, body = self.client.request(0, "GET", "/metrics")
        return body.get("metrics", {}) if status == 200 else {}

    def stop(self) -> int:
        self.client.close()
        self.launch.terminate()
        return self.launch.finish(60.0)


class Swapper:
    """Atomically replace the served artefact every ``RELOAD_EVERY_S``,
    alternating the two models, while traffic runs."""

    def __init__(self, target: Path, artefacts: list[Path]):
        self.target, self.artefacts = target, artefacts
        self.swaps = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(RELOAD_EVERY_S):
            self.swaps += 1
            source = self.artefacts[self.swaps % 2]
            tmp = self.target.with_name(".swap.tmp")
            shutil.copyfile(source, tmp)
            os.replace(tmp, self.target)

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def serve_inputs(seed: int):
    from repro.persistence import load_segmentation
    from repro.perf.reference import score_batch_scalar

    artefacts = served_models(seed)
    rng = random.Random(seed)
    ages = [rng.uniform(*checks.AGE_RANGE) for _ in range(SERVE_POINTS)]
    salaries = [rng.uniform(*checks.SALARY_RANGE)
                for _ in range(SERVE_POINTS)]
    expected, errors = {}, []
    for path in artefacts:
        segmentation = load_segmentation(path)
        expected[checks.model_id(path.read_bytes())] = [
            int(i) for i in score_batch_scalar(segmentation, ages,
                                               salaries)]
        errors.append(checks.region_error(segmentation))
    return artefacts, ages, salaries, expected, errors


def predictor(client: Client, ages, salaries, expected, outcome: Outcome,
              offset: int):
    """``send(index, slot)`` for :func:`stats.run_open_loop`."""
    lock = threading.Lock()

    def send(index: int, slot: int) -> bool:
        point = (offset + index) % len(ages)
        status, body = client.request(slot, "POST", "/predict", {
            "model": "arcs", "x": ages[point], "y": salaries[point]})
        problem = checks.prediction(status, body, point, expected)
        with lock:
            outcome.record([problem] if problem else [])
        return problem is None

    return send


def step(server: Server, rate: float, count: int, inputs,
         outcome: Outcome, offset: int) -> stats.OpenLoopResult:
    _, ages, salaries, expected, _ = inputs
    client = Client(server.url, CONNECTIONS)
    try:
        return stats.run_open_loop(
            predictor(client, ages, salaries, expected, outcome, offset),
            rate, count, connections=len(client.connections))
    finally:
        client.close()


def step_ok(result: stats.OpenLoopResult) -> bool:
    """Sustained: nothing failed, the tail stays within the limit and
    the backlog did not grow."""
    if result.failures or not result.latencies:
        return False
    return (stats.summarize(result.latencies).tail <= LATENCY_LIMIT_S
            and not result.backlog_grew(LATENCY_LIMIT_S))


def generator_late(result: stats.OpenLoopResult) -> float | None:
    """The generator's p99 lateness, or ``None`` past the limit."""
    late = stats.percentile(result.gen_late, 99.0)
    return late if late <= GEN_LATE_LIMIT_S else None


def low_rate_step(server: Server, inputs, outcome: Outcome
                  ) -> tuple[stats.OpenLoopResult, float]:
    """The 100 rps step, repeated while the generator fell behind."""
    lateness = []
    for _ in range(LOW_RATE_ATTEMPTS):
        result = step(server, LOW_RATE, STEP_REQUESTS, inputs, outcome, 0)
        late = generator_late(result)
        if late is not None:
            return result, late
        lateness.append(stats.percentile(result.gen_late, 99.0))
    raise InvalidRun(
        f"load generator ran {', '.join(f'{l * 1000:.2f}' for l in lateness)}"
        f"ms late (p99) at {LOW_RATE} rps in {LOW_RATE_ATTEMPTS} attempts; "
        f"limit {GEN_LATE_LIMIT_S * 1000:g}ms")


def closed_loop(server: Server, inputs, outcome: Outcome) -> float:
    """Wall time for ``CLOSED_REQUESTS`` predictions sent back to back
    over ``nproc`` connections."""
    _, ages, salaries, expected, _ = inputs
    slots = CONNECTIONS
    client = Client(server.url, slots)
    send = predictor(client, ages, salaries, expected, outcome, 0)
    cursor = iter(range(CLOSED_REQUESTS))
    lock = threading.Lock()

    def loop(slot: int) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            send(index, slot)

    started = time.perf_counter()
    threads = [threading.Thread(target=loop, args=(slot,))
               for slot in range(slots)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    client.close()
    return time.perf_counter() - started


def serve_setup(models: Path) -> float:
    server = Server(models)
    server.stop()
    return server.setup_s


def serving_dir(work: Path, artefacts: list[Path]) -> Path:
    models = work / "models"
    models.mkdir()
    shutil.copyfile(artefacts[0], models / "arcs.json")
    return models


def serve_predict(seed: int, outcome: Outcome) -> dict:
    inputs = serve_inputs(seed)
    artefacts, errors = inputs[0], inputs[4]
    work = work_dir("serve")
    models = serving_dir(work, artefacts)
    setups = [serve_setup(models) for _ in range(2)]
    server = Server(models)
    setups.append(server.setup_s)
    steps: dict[float, stats.OpenLoopResult] = {}
    try:
        with Swapper(models / "arcs.json", artefacts) as swapper:
            offset = 0
            for rate in LADDER:
                count = max(STEP_REQUESTS, int(rate))
                if rate == LOW_RATE:
                    steps[rate], late = low_rate_step(server, inputs,
                                                      outcome)
                else:
                    steps[rate] = step(server, rate, count, inputs,
                                       outcome, offset)
                offset += count
                if not step_ok(steps[rate]) and rate >= HIGH_RATE:
                    break
                time.sleep(0.2)
            run_s = closed_loop(server, inputs, outcome)
        peak = peak_rss_tree_mb(server.launch.proc.pid)
    finally:
        code = server.stop()
    outcome.record([] if code == 0 else
                   [f"arcs serve exited {code} on SIGTERM"])
    sustained = [rate for rate, result in steps.items()
                 if step_ok(result)]
    max_rate = max(sustained) if sustained else 0
    low = stats.summarize(ms(steps[LOW_RATE].latencies))
    high = stats.summarize(ms(steps[HIGH_RATE].latencies))
    detail(f"serve-predict: arcs serve --workers 2, artefact swapped "
           f"every {RELOAD_EVERY_S:g}s ({swapper.swaps} swaps)")
    detail(f"  setup_s (launch to both workers answering) {fmt(setups)}")
    detail(f"  run_s ({CLOSED_REQUESTS} closed-loop predictions over "
           f"{CONNECTIONS} connections) {run_s:.4f}")
    detail(f"  peak_rss_mb (largest process) {peak:.1f}")
    detail(f"  predict_ms.low ({LOW_RATE} rps): {low.describe()}")
    detail(f"  predict_ms.high ({HIGH_RATE} rps): {high.describe()}")
    for rate, result in steps.items():
        summary = stats.summarize(ms(result.latencies or [0.0]))
        detail(f"  ladder {rate:>5} rps: {summary.describe()}, failed "
               f"{result.failures}, backlog "
               f"{'grew' if result.backlog_grew(LATENCY_LIMIT_S) else 'flat'}"
               f" -> {'ok' if step_ok(result) else 'over the limit'}")
    detail(f"  max_rate_rps {max_rate} (tail <= "
           f"{LATENCY_LIMIT_S * 1000:g}ms, no backlog growth)")
    detail(f"  gen.late_p99_ms {late * 1000:.3f} at {LOW_RATE} rps")
    detail(f"  region_error of the served models "
           f"{', '.join(f'{e:.6f}' for e in errors)}")
    shutil.rmtree(work, ignore_errors=True)
    return {
        "setup_s": stats.median(setups),
        "run_s": run_s,
        "peak_rss_mb": peak,
        "op_p50_ms": low.p50,
    }


def serve_predict_traced(seed: int, outcome: Outcome) -> dict:
    inputs = serve_inputs(seed)
    artefacts = inputs[0]
    work = work_dir("serve-trace")
    models = serving_dir(work, artefacts)
    plain_server = Server(models)
    try:
        plain, late = low_rate_step(plain_server, inputs, outcome)
    finally:
        plain_server.stop()
    spans_dir = work / "spans"
    server = Server(models, spans=spans_dir)
    scrapes = [server.scrape()]
    try:
        with Swapper(models / "arcs.json", artefacts):
            results = {}
            for rate in (LOW_RATE, HIGH_RATE):
                results[rate] = step(server, rate, STEP_REQUESTS, inputs,
                                     outcome, 0)
                scrapes.append(server.scrape())
    finally:
        code = server.stop()
    outcome.record([] if code == 0 else
                   [f"traced arcs serve exited {code} on SIGTERM"])
    spans, counts = tracing.load_span_files(spans_dir)
    metrics = layer_metrics(spans, counts)
    metrics.update(serve_layer_metrics(scrapes, spans, results))
    metrics["gen.late_p99_ms"] = late * 1000.0
    plain_p50 = stats.median(plain.latencies)
    traced_p50 = stats.median(results[LOW_RATE].latencies)
    metrics["obs.trace_overhead"] = traced_p50 / plain_p50 - 1.0
    detail(f"serve-predict traced: p50 at {LOW_RATE} rps "
           f"{traced_p50 * 1000:.3f}ms (untraced "
           f"{plain_p50 * 1000:.3f}ms)")
    shutil.rmtree(work, ignore_errors=True)
    return metrics


def serve_layer_metrics(scrapes: list[dict], spans: list[dict],
                        results: dict) -> dict:
    """``serve.*`` and ``fleet.*`` from the fleet-wide ``/metrics``
    scrapes around each step, plus the traced batch spans."""
    first, after_low, last = scrapes[0], scrapes[1], scrapes[-1]

    def histogram(scrape, name):
        return scrape.get("histograms", {}).get(name)

    def counter(scrape, prefix):
        return sum(value for name, value in
                   scrape.get("counters", {}).items()
                   if name == prefix or name.startswith(prefix + "{"))

    def delta(prefix):
        return counter(last, prefix) - counter(first, prefix)

    request = 'serve.request_seconds{endpoint="predict"}'
    server_p50 = stats.histogram_delta_quantile(
        histogram(first, request), histogram(after_low, request), 0.5)
    server_p99 = stats.histogram_delta_quantile(
        histogram(first, request), histogram(last, request), 0.99)
    client_p50 = stats.median(results[LOW_RATE].latencies)

    def histogram_delta(name):
        old, new = histogram(first, name), histogram(last, name)
        if new is None:
            return 0.0, 0
        return (new["total"] - (old["total"] if old else 0.0),
                new["count"] - (old["count"] if old else 0))

    batch_total, batches = histogram_delta("serve.batch_size")
    compile_total, _ = histogram_delta("serve.compile_seconds")
    publish_total, publishes = histogram_delta("fleet.publish_seconds")
    hits = delta("serve.scorer_cache_hits")
    misses = delta("serve.scorer_cache_misses")
    totals = tracing.layer_totals(spans)
    submit = totals.get("serve.submit", {"busy_s": 0.0, "calls": 0})
    score = totals.get("serve.score", {"busy_s": 0.0, "calls": 0})
    submit_ms = 1000.0 * submit["busy_s"] / max(submit["calls"], 1)
    score_ms = 1000.0 * score["busy_s"] / max(score["calls"], 1)
    return {
        "serve.server_p50_ms": 1000.0 * (server_p50 or 0.0),
        "serve.server_p99_ms": 1000.0 * (server_p99 or 0.0),
        "serve.transport_p50_ms":
            1000.0 * (client_p50 - (server_p50 or 0.0)),
        "serve.batch_size_mean": batch_total / batches if batches else 0.0,
        "serve.batch_wait_ms": submit_ms - score_ms,
        "serve.score_ms": score_ms,
        "serve.scorer_cache_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "serve.compile_s": compile_total,
        "serve.reloads": delta("serve.reloads"),
        "serve.shm_attach_fallbacks": delta("serve.shm_attach_fallbacks"),
        "serve.shed": delta("serve.shed_total"),
        "fleet.publish_ms":
            1000.0 * publish_total / publishes if publishes else 0.0,
    }


# ----------------------------------------------------------------------
# Per-layer metrics from spans
# ----------------------------------------------------------------------
def layer_metrics(spans: list[dict], counts) -> dict:
    """Every :data:`PER_LAYER` metric, zero where the workload does not
    reach the layer."""
    totals = tracing.layer_totals(spans)
    metrics = {name: 0.0 for name in PER_LAYER}
    for layer, entry in totals.items():
        for kind in ("busy_s", "self_s"):
            if f"{layer}.{kind}" in metrics:
                metrics[f"{layer}.{kind}"] = entry[kind]

    def count(layer, key):
        return totals.get(layer, {}).get("counts", {}).get(key, 0)

    io_tuples = count("io", "tuples")
    metrics["io.tuples_per_s"] = (io_tuples / metrics["io.busy_s"]
                                  if metrics["io.busy_s"] else 0.0)
    metrics["window.tuples_expired"] = count("window", "tuples_expired")
    metrics["mine.cells_qualified"] = count("mine", "cells_qualified")
    metrics["bitop.fragments"] = count("bitop", "fragments")
    fragments_in = count("merge", "fragments_in")
    clusters_out = count("merge", "clusters_out")
    hull_evals = counts.get("merge.hull_evals", 0)
    metrics["merge.fragments_in"] = fragments_in
    metrics["merge.clusters_out"] = clusters_out
    metrics["merge.hull_evals"] = hull_evals
    metrics["merge.useful_ratio"] = (
        (fragments_in - clusters_out) / hull_evals if hull_evals else 0.0)
    touched = count("verify", "rows_touched")
    metrics["verify.calls"] = count("verify", "calls")
    metrics["verify.rows_touched"] = touched
    metrics["verify.useful_ratio"] = (
        count("verify", "rows_sampled") / touched if touched else 0.0)
    metrics["optimizer.trials"] = count("optimizer", "trials")
    refits = count("refit", "refits")
    metrics["refit.publish_ratio"] = (
        count("refit", "published") / refits if refits else 0.0)
    return metrics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def ms(seconds_list) -> list[float]:
    return [1000.0 * value for value in seconds_list]


def fmt(values) -> str:
    return (f"median {stats.median(values):.4f} of "
            f"[{', '.join(f'{v:.4f}' for v in values)}]")


RUNNERS = {
    ("fit-csv", 0): fit_csv,
    ("fit-csv", 1): fit_csv_traced,
    ("stream-refit", 0): stream_refit,
    ("stream-refit", 1): stream_refit_traced,
    ("serve-predict", 0): serve_predict,
    ("serve-predict", 1): serve_predict_traced,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    # Each workload does a fixed amount of work, sized so that one run
    # measures for about BENCHMARK.json's run_seconds; fixed counts keep
    # a faster program's medians over as many samples as its parent's.
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from the "
              f"root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated benchmark still stops the programs it started (the
    # ``finally`` blocks run on SystemExit, not on a default SIGTERM).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    outcome = Outcome()
    try:
        values = RUNNERS[args.workload, args.trace](args.seed, outcome)
    except InvalidRun as error:
        print(f"perfbench: invalid run: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(WORK / "runs", ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    for problem in outcome.problems[:20]:
        detail(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
