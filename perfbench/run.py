"""randrule benchmark: seeded closed-loop workloads with one client each.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc-overlap --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5

A run sets up (import in a fresh interpreter, input generation, one warm-up
op), then sends ops one at a time for ``--seconds`` seconds and checks each.
Each op after set-up runs in a child forked from the client and is timed
there; the client waits for it before sending the next.

``--trace 0`` sets up three times and reports the median as ``setup_s``,
times untraced ops, then runs two more ops under tracemalloc for
``peak_mb``. ``--trace 1`` alternates traced and untraced ops, so the
tracing overhead is measured under the same conditions, then runs one
traced op under tracemalloc for the per-layer peaks; the spans are written
to ``.perfbench/`` when the run ends.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--workload all`` runs every workload untraced
and traced, each in a child process, and prints every metric by name. The
program is imported from ``src/``; without it the benchmark exits with 2.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, so a 2-core machine measures the program and not the scheduler
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import functools
import gc
import hashlib
import json
import pickle
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 3
MEMORY_OPS = 2
WORKLOAD_NAMES = ("mc-overlap", "mc-gauss", "play", "survey-report")

IMPORT_PROBE = "import time; t = time.perf_counter(); import randrule.cli; print(time.perf_counter() - t)"


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond) at the highest percentile with at least
    10 ops beyond it; the maximum when there are 10 ops or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def in_child(fn):
    """Run ``fn()`` in a child forked from this process and return its result.

    Every op of a run starts from the same heap this way. Run one after
    another in one process, survey ops slowed from 0.49 s to 0.96 s over 30
    ops as freed memory was reused in a scattered order, while a scan of a
    dataset loaded once stayed flat; a user of the CLI starts each command
    from a fresh heap.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(fn(), fh)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"op process exited with status {status}")
    return pickle.loads(data)


class Client:
    """Sends ops to one workload and keeps the tally of failures."""

    def __init__(self, workload, expected: dict):
        self.wl = workload
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: str | None = None

    def _attempt(self, tracer, op_id: int):
        """Time one op, then check it: (latency, problems, digest, new spans)."""
        first = len(tracer.spans) if tracer else 0
        if tracer and tracer.memory:
            tracemalloc.start()
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    res = tracer.run_op(op_id, self.wl.op) if tracer else self.wl.op()
                except Exception:
                    return time.perf_counter() - start, [f"raised: {traceback.format_exc()}"], None, []
                latency = time.perf_counter() - start
            if tracer:
                tracer.probe(op_id)
        finally:
            if tracer and tracer.memory:
                tracemalloc.stop()
        try:
            problems = self.wl.check(res, self.expected)
            digest = hashlib.sha256(b"\0".join(self.wl.outputs(res))).hexdigest()
        except Exception:
            problems, digest = [f"check raised: {traceback.format_exc()}"], None
        spans = tracer.spans[first:] if tracer else []
        for span in spans:
            span.attrs.pop("mixture", None)
        return latency, problems, digest, spans

    def send(self, tracer=None, op_id: int = 0, fork: bool = True) -> float:
        """One op and its checks, in a forked child unless ``fork`` is false;
        returns the op's latency in seconds and adds its spans to ``tracer``."""
        self.wl.reset()
        gc.collect()
        self.attempted += 1
        job = functools.partial(self._attempt, tracer, op_id)
        start = time.perf_counter()
        try:
            latency, problems, digest, spans = in_child(job) if fork else job()
        except RuntimeError as exc:
            latency, problems, digest, spans = time.perf_counter() - start, [str(exc)], None, []
        if tracer and fork:
            tracer.spans.extend(spans)
        if digest is not None:
            self.reference = self.reference or digest
            if digest != self.reference:
                problems.append("output bytes differ from the first op of the same seed")
        if problems:
            self.failed += 1
            self.failures.extend(f"op {self.attempted}: {p}" for p in problems)
        return latency


def set_up(cls, seed: int, workdir: Path, reps: int):
    """Set up ``reps`` times; returns (median set-up seconds, workload, client).

    The warm-up op runs in this process, so the ops forked later inherit
    what it warmed.
    """
    times = []
    client = None
    for _ in range(reps):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        imported = import_seconds()
        start = time.perf_counter()
        wl = cls(seed, workdir)
        made = time.perf_counter() - start
        if client is None:
            client = Client(wl, in_child(wl.oracle))
        client.wl = wl
        times.append(imported + made + client.send(fork=False))
    return statistics.median(times), wl, client


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    try:
        setup_s, wl, client = set_up(WORKLOADS[name], seed, workdir, 1 if trace else SETUP_REPS)
        untraced: list[float] = []
        traced: list[float] = []
        timed = Tracer(layers=True)
        deadline = time.perf_counter() + seconds
        op_id = 0
        while time.perf_counter() < deadline:
            if trace and op_id % 2 == 0:
                traced.append(client.send(timed, op_id))
            else:
                untraced.append(client.send())
            op_id += 1
        memory = Tracer(memory=True, layers=trace)
        for op_id in range(-1, -1 - (1 if trace else MEMORY_OPS), -1):
            client.send(memory, op_id)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        timed.write(OUT / f"spans-{name}-seed{seed}.jsonl")
        metrics = layer_metrics(timed, memory, traced, untraced)
        wanted = spec["per_layer"]
        print(f"{len(traced)} traced and {len(untraced)} untraced ops")
    else:
        value, pct, beyond = tail(untraced)
        metrics = {
            # a median, like the latencies, so one stalled op does not move it
            "items_per_s": statistics.median(wl.items / t for t in untraced),
            "op_p50_ms": statistics.median(untraced) * 1e3,
            "op_tail_ms": value * 1e3,
            "peak_mb": max(s.peak for s in memory.spans if s.name == "op") / 1e6,
            "setup_s": setup_s,
            "success_rate": 1.0 - client.failed / client.attempted,
        }
        wanted = spec["end_to_end"]
        print(f"{len(untraced)} timed ops of {wl.items} {wl.item_unit}; "
              f"op_tail_ms is p{pct:.1f}, with {beyond} ops beyond it")
    for failure in client.failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"error_rate {client.failed / client.attempted:.6g} ({client.failed} of {client.attempted} ops failed)")
    for m in wanted:
        print(f"  {m['name']:28s} {metrics[m['name']]:>14.6g} {m['unit']}")
    return {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in its own child process."""
    code = 0
    for name in WORKLOAD_NAMES:
        for trace in ("0", "1"):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", trace]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = done.stdout.splitlines()
            print(f"== {name} --trace {trace}")
            print("\n".join(lines[:-1]))
            sys.stderr.write(done.stderr)
            if done.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                code = 1
    return code


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="randrule benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (SRC / "randrule" / "__init__.py").is_file():
        print(f"error: the program is missing: no {SRC / 'randrule'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
