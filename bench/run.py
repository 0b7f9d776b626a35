"""Benchmark for periloc: the verify, exact and certify workloads.

    python3 bench/run.py --workload verify --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from `src/`. Each
workload is a fixed batch of operations built from `--seed`. One warm-up pass
is thrown away, then whole rounds of the batch repeat until `--seconds` have
passed (at least three rounds). One process drives the library in a closed
loop, one operation at a time; the CLI leg runs once per round, one
subprocess at a time.

Times are in ref: an operation's seconds divided by the mean of the
reference kernel (refkernel.py) run right before and right after it. Each
operation keeps its median over the rounds.

--trace 0 prints the end-to-end metrics; --trace 1 traces the layers (see
tracing.py), runs the CLI leg in-process and prints the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Traces go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from tracing import PER_LAYER, Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("verify", "exact", "certify")
MIN_ROUNDS = 3
SETUP_PROBES = 5

END_TO_END_UNITS = {"setup_s": "s", "batch_ref": "ref", "longest_op_ref": "ref", "cli_ref": "ref", "peak_rss_mb": "MB"}


def load_periloc() -> None:
    """Import periloc from this checkout's src/, or stop with exit code 2."""
    if not os.path.isfile(os.path.join(SRC, "periloc", "__init__.py")):
        sys.stderr.write(f"bench: no periloc sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import periloc

    if not os.path.abspath(periloc.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"bench: periloc imported from {periloc.__file__}, not from {SRC}\n")
        sys.exit(2)


def pin_to_one_cpu() -> None:
    """Keep the benchmark, its kernel and its CLI subprocesses on one CPU, so
    that the kernel runs on the core the measured work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def build(workload: str, seed: int):
    workdir = os.path.join(OUT, f"{workload}-seed{seed}")
    os.makedirs(workdir, exist_ok=True)
    return importlib.import_module(f"workload_{workload}").build(seed, workdir)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("SEED", "PYTHONPATH")}
    env["PYTHONPATH"] = SRC
    return env


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports periloc and builds the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def fingerprint(obj) -> str:
    """A digest of an output's full content: arrays by their bytes,
    dataclasses field by field, everything else by repr."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(f"array{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif dataclasses.is_dataclass(x) and not isinstance(x, type):
            h.update(type(x).__name__.encode())
            for f in dataclasses.fields(x):
                feed(getattr(x, f.name))
        elif isinstance(x, (list, tuple)):
            h.update(b"(")
            for item in x:
                feed(item)
            h.update(b")")
        elif isinstance(x, dict):
            h.update(b"{")
            for k in sorted(x, key=repr):
                feed(k)
                feed(x[k])
            h.update(b"}")
        else:
            h.update(repr(x).encode())
            h.update(b";")

    feed(obj)
    return h.hexdigest()


class Runner:
    """Runs rounds of a workload and keeps each operation's times in ref."""

    def __init__(self, wl, kernel, tracer=None):
        self.wl = wl
        self.kernel = kernel
        self.tracer = tracer
        self.op_refs: dict[str, list[float]] = {op.name: [] for op in wl.ops}
        self.op_secs: dict[str, list[float]] = {op.name: [] for op in wl.ops}
        self.kernels: list[float] = []
        self.cli_refs: list[float] = []
        self.layer_rounds: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # wrong outputs
        self.raised: list[str] = []  # operations that raised: failed, not wrong
        self.env = child_env()
        self.checked: dict[str, tuple[str, bool]] = {}

    def _timed(self, fn):
        k_before = self.kernel()
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
        k_after = self.kernel()
        self.kernels += (k_before, k_after)
        return out, t1 - t0, (k_before + k_after) / 2

    def _cli(self, argv):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "periloc.cli", *argv]
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            return proc.returncode, proc.stdout
        import periloc.cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = periloc.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, buf.getvalue()

    def _startup(self):
        cmd = [sys.executable, "-c", "import periloc.cli"]
        subprocess.run(cmd, cwd=ROOT, env=self.env, check=True)

    def _record(self, name, check, out, counted) -> None:
        """Check an output; an output identical to one already checked (the
        library is deterministic) takes that verdict without a second check."""
        fp = fingerprint(out)
        seen = self.checked.get(name)
        if seen is not None and seen[0] == fp:
            ok = seen[1]
        else:
            try:
                ok = check(out)
            except AssertionError as exc:
                self.errors.append(f"{name}: {exc}")
                return
            self.checked[name] = (fp, ok)
        if counted and not ok:
            self.failed += 1

    def _items(self):
        """(name, run, check, is_cli) for the batch's operations, then the CLI leg."""
        for op in self.wl.ops:
            yield op.name, op.run, op.check, False
        for step in self.wl.cli:
            yield step.name, functools.partial(self._cli, step.argv), lambda out, step=step: step.check(*out) or True, True

    def round(self, counted: bool) -> None:
        tr = self.tracer
        first_span = len(tr.spans) if tr else 0
        kernel_of_op: dict[int, float] = {}
        cli_total = 0.0
        for name, run, check, is_cli in self._items():
            spans: list[int] = []

            def call():
                if tr is None:
                    return run()
                with tr.op(name) as idx:
                    spans.append(idx)
                    return run()

            try:
                out, secs, kmean = self._timed(call)
            except Exception as exc:  # the library raised: a failed operation
                if counted:
                    self.attempted += 1
                    self.failed += 1
                self.raised.append(f"{name}: raised {exc!r}")
                continue
            if spans:
                kernel_of_op[spans[0]] = kmean
            if counted:
                self.attempted += 1
                if is_cli:
                    cli_total += secs / kmean
                else:
                    self.op_refs[name].append(secs / kmean)
                    self.op_secs[name].append(secs)
            self._record(name, check, out, counted)
        if not counted:
            return
        self.cli_refs.append(cli_total)
        if tr:
            _, secs, kmean = self._timed(self._startup)
            self.layer_rounds.append(layer_metrics(tr.spans, first_span, kernel_of_op, secs / kmean))

    def raw_figures(self) -> dict:
        """Seconds, for reference only: the kernel's median and the batch
        timed in raw seconds (sum of per-operation medians)."""
        return {
            "kernel_median_s": statistics.median(self.kernels),
            "batch_s": sum(statistics.median(v) for v in self.op_secs.values() if v),
            "op_ref_medians": {k: statistics.median(v) for k, v in self.op_refs.items() if v},
        }

    def end_to_end(self, setup_s) -> dict:
        medians = [statistics.median(v) for v in self.op_refs.values() if v]
        return {
            "setup_s": setup_s,
            "batch_ref": sum(medians),
            "longest_op_ref": max(medians),
            "cli_ref": statistics.median(self.cli_refs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="periloc benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_periloc()
    wl = build(args.workload, args.seed)
    if args.setup_only:
        return 0
    pin_to_one_cpu()
    setup_s = None
    if not args.trace:
        setup_s = statistics.median(setup_probe_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES))

    from refkernel import reference_kernel

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    runner = Runner(wl, reference_kernel, tracer)
    runner.round(counted=False)  # warm-up, thrown away
    if tracer:
        tracer.spans.clear()
    t0 = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - t0 < args.seconds:
        runner.round(counted=True)
        rounds += 1
    measured = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()

    for err in runner.errors + runner.raised:
        sys.stderr.write(f"bench: {err}\n")
    e2e = runner.end_to_end(setup_s)
    record = {"workload": args.workload, "seed": args.seed, "rounds": rounds, "seconds": measured,
              "end_to_end": e2e, **runner.raw_figures()}
    if args.trace:
        units = dict(PER_LAYER)
        metrics = {name: {"value": statistics.median(r[name] for r in runner.layer_rounds), "unit": units[name]} for name, _ in PER_LAYER}
        record.update(per_round=runner.layer_rounds, spans=tracer.spans)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    result = {"correct": not runner.errors, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
    kind = "trace" if args.trace else "result"
    with open(os.path.join(OUT, f"{kind}-{args.workload}-seed{args.seed}.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, **record}, fh)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
