"""darkcount benchmark: closed-loop CLI workloads, timed end to end and traced per layer.

    python3 perfbench/run.py --workload count --seed 0 --seconds 10 --trace 0

One client runs the workload's operations one after another, each an
in-process ``darkcount.cli.main(argv + ["--seed", seed])`` call, and checks
every output itself (see checks.py).  Operation lists repeat until
``--seconds`` have passed, always at least once; times are medians over
those passes.  Set-up (import, parser build, one warm-up operation per
subcommand) is timed apart, here and in fresh processes, and reported as the
median.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` adds one pass with every public darkcount function wrapped
(see tracer.py) and reports the per-layer metrics; ``trace.overhead_s`` is
that pass's time minus the untraced median.

The last line of standard output is the JSON result; the full record (data,
meta and, when traced, spans) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Two BLAS threads, as on the 2-core host the baseline comes from; on a
# 2-vCPU VM one thread made the trajectory workload slower and noisier.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
SETUP_CHILDREN = 8  # fresh-process set-ups per run besides the run's own
STDERR_KEEP = 4000  # characters of a refused operation's stderr kept in the record


def _pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


class Runner:
    """Runs CLI operations in this process and checks their outputs."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.probe_sink: list = []
        started = time.perf_counter()
        sys.path.insert(0, str(SRC))
        from darkcount import cli

        cli.build_parser()
        self.cli = cli
        import checks  # after darkcount, so numpy's import counts as set-up

        self.checks = checks
        checks.install_probes(self.probe_sink)
        imported_s = time.perf_counter() - started
        self.warmup = [self.run_op(argv) for argv in workload.warmup]
        # the warm-ups' output checks are the benchmark's work, not set-up
        self.setup_s = imported_s + sum(op["seconds"] for op in self.warmup)

    def run_op(self, argv) -> dict:
        full = [*argv, "--seed", str(self.seed)]
        out, err = io.StringIO(), io.StringIO()
        self.probe_sink.clear()
        crash = None
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(full)
        except Exception:  # a crash is a result to record, not a reason to stop
            code, crash = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
        op = {"argv": full, "seconds": elapsed, "exit_code": code,
              "output_bytes": len(out.getvalue())}
        if code == 0:
            try:
                problems, facts = self.checks.check(argv, out.getvalue())
            except (KeyError, IndexError, TypeError, ValueError, SyntaxError) as exc:
                problems, facts = [f"output not in the expected form: {exc!r}"], {}
            op["facts"] = facts
            op["status"] = "wrong" if problems else "ok"
            if problems:
                op["problems"] = problems
        else:
            op["status"] = "crashed" if crash else "refused"
            op["stderr"] = (crash or err.getvalue())[-STDERR_KEEP:]
            op["method_values"] = list(self.probe_sink)
            op["expected"] = self.checks.expected_values(argv)
        return op

    def run_passes(self, seconds: float) -> list[list[dict]]:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append([self.run_op(argv) for argv in self.workload.ops])
            if len(passes) == 1:
                # later passes can add allocator fragmentation, and how many
                # passes fit in --seconds depends on the host
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return passes


def _setup_in_fresh_process(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _end_to_end(runner, pass_seconds, setups) -> dict[str, float]:
    heaviest = runner.workload.heaviest
    return {
        "wall_s": statistics.median(sum(p) for p in pass_seconds),
        "largest_op_s": statistics.median(p[heaviest] for p in pass_seconds),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": runner.peak_rss_mb,
    }


def _per_layer(runner, tracer, traced, untraced_wall, traced_wall) -> dict[str, float]:
    out = tracer.layer_metrics()
    facts = [op.get("facts", {}) for op in traced]
    out["cli.output_bytes"] = sum(op["output_bytes"] for op in traced)
    out["protocol.d_dev_max"] = max((f["d_dev"] for f in facts if "d_dev" in f), default=0.0)
    out["protocol.mc_z_max"] = max((f["mc_z"] for f in facts if "mc_z" in f), default=0.0)
    out["trajectory.dev_from_projector_max"] = max(
        (f["traj_dev"] for f in facts if "traj_dev" in f), default=0.0)
    out["trajectory.exact_z_max"] = max(
        (f["traj_z"] for f in facts if "traj_z" in f), default=0.0)
    out["darkspace.rank_margin_min"] = min(
        runner.checks.rank_margin(op, policy) for op, policy in tracer.svd_blocks)
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


def _meta(args, runner) -> dict:
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError):
            return "unknown"

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "machine": platform.machine(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy), "openblas_scipy": blas_version(scipy),
        "darkcount": getattr(runner.cli, "__version__", "unknown"),
        "git_commit": _git_commit(), "timestamp": time.time(),
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"  # the benchmark may run from an export without .git


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print the seconds and exit")
    args = parser.parse_args(argv)

    if not (SRC / "darkcount" / "cli.py").is_file():
        print(f"error: darkcount sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    _pin_blas_threads()
    runner = Runner(WORKLOADS[args.workload], args.seed)
    if args.setup_only:
        # the warm-ups' outputs are judged in the parent, which ran them too
        print(repr(runner.setup_s))
        return 0

    passes = runner.run_passes(args.seconds)
    ops = [op for p in passes for op in p]
    meta = {"warmup_seconds": [op.pop("seconds") for op in runner.warmup],
            "pass_seconds": [[op.pop("seconds") for op in p] for p in passes],
            "setup_samples_s": [runner.setup_s]}
    data = {"ops": passes[0]}
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = [runner.run_op(argv) for argv in runner.workload.ops]
        finally:
            tracer.uninstall()
        untraced_wall = statistics.median(sum(p) for p in meta["pass_seconds"])
        meta["traced_pass_seconds"] = [op.pop("seconds") for op in traced]
        values = _per_layer(runner, tracer, traced, untraced_wall,
                            sum(meta["traced_pass_seconds"]))
        meta["spans"] = tracer.spans
        ops += traced
        wanted = spec["per_layer"]
    else:
        meta["setup_samples_s"] += [
            _setup_in_fresh_process(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]
        values = _end_to_end(runner, meta["pass_seconds"], meta["setup_samples_s"])
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        # times are measurements, the rest reproduces exactly for a seed
        (meta if m["unit"] == "s" or name == "peak_rss_mb" else data)[name] = m["value"]

    # Operations are counted over the first pass only, so the counts do not
    # depend on how many passes fit in --seconds; later passes are for timing.
    attempted = len(passes[0])
    failed = sum(op["status"] != "ok" for op in passes[0])
    # Every output is checked.  A refusal (nonzero exit) is a failed operation;
    # a wrong answer or a crash in any pass, or any warm-up failure, makes the
    # run incorrect.
    correct = all(op["status"] in ("ok", "refused") for op in ops) and all(
        op["status"] == "ok" for op in runner.warmup)
    data.update(correct=correct, attempted=attempted, failed=failed,
                fail_frac=failed / attempted,
                failures=[op for op in runner.warmup + passes[0] if op["status"] != "ok"])
    # later passes (and the traced one) repeat the first; how many there are
    # depends on the host, so what they produced goes under meta
    meta["later_failures"] = [op for op in ops[attempted:] if op["status"] != "ok"]

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    meta.update(_meta(args, runner))
    path.write_text(json.dumps({"data": data, "meta": meta}, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload}  {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload}  {'fail_frac':<40} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} operations)")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
