"""Benchmark of the cavityfilter package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --smoke

The package is imported from ``src/`` of the checkout that holds this
file; without it the benchmark exits with code 2.

Load is one closed loop in this process: one client, and each pass
starts when the previous one has finished.  A run builds the inputs
from the seed, makes one reference pass (for ensemble-thermal with one
pool worker), then repeats passes with ``WORKERS`` pool workers until
they have taken ``--seconds`` seconds.  Every pass checks its outputs and compares
its output digest with the reference pass.

``--trace 0`` prints the end-to-end metrics: medians over the timed
passes (set-up samples) of each time scaled by the host speed measured
around it (hostspeed.py).  ``--trace 1`` alternates untraced and traced passes, then
times each module (see probes.py) and prints the per-module metrics.
The last line of stdout is one JSON object; lines before it, starting
with ``#``, repeat the metrics for a reader and describe the host.  A
report with the samples, the host and, for traced runs, every span goes
to ``perfbench_out/``.

``--all`` runs every workload untraced in child processes and prints
their metric lines together.  ``--smoke`` runs every workload, untraced
and traced, at a tiny size.  Both check that every metric named in
BENCHMARK.json is printed with its unit.  At the tiny size the
statistical checks are out of their range, so neither mode gates on the
checks; their failures are printed.
"""

from __future__ import annotations

import os

WORKERS = 2

# pin before numpy is imported: one BLAS thread per process, and an
# explicit pool size (the package default ignores CPU affinity)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["QKF_THREADS"] = str(WORKERS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
MIN_PASSES = 3
SETUP_SAMPLES = 7
SUBPROCESS_TIMEOUT_S = 170


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _import_package():
    """Import cavityfilter from this checkout's src/, or exit 2."""
    if not (SRC / "cavityfilter" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/cavityfilter; the "
              "benchmark runs from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    import cavityfilter
    if Path(cavityfilter.__file__).resolve().parent != (SRC / "cavityfilter").resolve():
        print(f"error: cavityfilter imported from {cavityfilter.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_info() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "env": {k: os.environ[k] for k in ("OMP_NUM_THREADS",
                                           "OPENBLAS_NUM_THREADS",
                                           "MKL_NUM_THREADS", "QKF_THREADS")},
        "load": "closed loop, one client in one process",
    }


class Tally:
    """Operations attempted and failed: a pass, and each output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{name}: {detail}")


class Runner:
    def __init__(self, workload, tally: Tally):
        self.w = workload
        self.tally = tally
        self.reference = None
        self.notes = []

    def run_pass(self, tr, workers: int):
        """One checked pass; returns (wall seconds, PassResult) or None."""
        t0 = time.perf_counter()
        try:
            with tr.span("pass", workload=self.w.name, workers=workers):
                res = self.w.run_pass(tr, workers)
        except Exception:  # a failed pass is counted; the run goes on
            self.tally.record("pass", False, traceback.format_exc(limit=3))
            return None
        wall = time.perf_counter() - t0
        self.w.after_pass()
        self.tally.record("pass", True, "")
        for name, ok, detail in res.checks:
            self.tally.record(name, ok, detail)
        if self.reference is None:
            self.reference = res.digest
        else:
            self.tally.record("digest_matches_first_pass",
                              res.digest == self.reference,
                              f"{res.digest[:16]} != {self.reference[:16]}")
        self.notes.append(res.notes)
        return wall, res


def setup_sample(name: str, seed: int, size: str,
                 workdir: Path) -> tuple[float, float]:
    """Seconds to import the package and build the inputs, measured in
    a fresh interpreter, and a host-speed reference sample taken there."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
         size, str(workdir)],
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
        cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    row = json.loads(proc.stdout.strip().splitlines()[-1])
    return row["import_s"] + row["build_s"], row["reference_s"]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MiB
    (Linux reports ru_maxrss in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def untraced_run(w, runner, args, workdir) -> tuple[dict, dict]:
    """End-to-end metrics.  Each time is scaled by the host speed
    measured around it in the same processes (see hostspeed.py); the
    raw samples go to the report."""
    import hostspeed
    import workloads
    from tracing import NULL

    setup, walls, rates, refs, setup_refs = [], [], [], [], []

    def setup_pair():
        took, ref = setup_sample(w.name, args.seed, args.size,
                                 workdir / f"setup{len(setup)}")
        setup.append(took)
        setup_refs.append(ref)

    setup_pair()
    runner.run_pass(NULL, 1)
    # the ensemble's passes run in WORKERS pool processes at once
    sampler = (hostspeed.ParallelSampler(WORKERS)
               if isinstance(w, workloads.EnsembleThermal) else None)
    host = sampler or hostspeed.sample
    busy = 0.0
    deadline = time.perf_counter() + 4 * args.seconds + 60
    try:
        before = host()
        while len(walls) < MIN_PASSES or busy < args.seconds:
            if time.perf_counter() > deadline:
                raise RuntimeError("too few passes completed")
            out = runner.run_pass(NULL, WORKERS)
            after = host()
            if out is not None:
                wall, res = out
                walls.append(wall)
                rates.append(w.steps_per_pass / res.traj_s)
                # the host speed over a pass: mean of the samples at its ends
                refs.append(0.5 * (before + after))
                busy += wall
            before = after
            # spread the set-up samples over the run, so that they see
            # the same host load as the passes
            if len(setup) < SETUP_SAMPLES * min(busy / args.seconds, 1.0):
                setup_pair()
    finally:
        if sampler:
            sampler.close()
    while len(setup) < SETUP_SAMPLES:
        setup_pair()

    def scaled(values, host, power=1):
        return statistics.median(
            v * (hostspeed.NOMINAL_S / r) ** power for v, r in zip(values, host))

    metrics = {
        "wall_s": scaled(walls, refs),
        "traj_steps_per_s": scaled(rates, refs, -1),
        "setup_s": scaled(setup, setup_refs),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {"wall_s": walls, "traj_steps_per_s": rates, "setup_s": setup,
               "host_reference_s": refs, "setup_host_reference_s": setup_refs}
    return metrics, samples


def traced_run(w, runner, args, workdir) -> tuple[dict, dict, object]:
    """Per-module metrics, as measured (not scaled by host speed)."""
    import hostspeed
    import probes
    import workloads
    from tracing import NULL, Tracer
    tr = Tracer(f"{w.name}-seed{args.seed}-{os.getpid()}")
    first = runner.run_pass(NULL, 1)
    if first is None:
        raise RuntimeError("the reference pass failed")
    plain, traced, traced_passes, ens_walls, refs = [], [], [], [], []
    start = time.perf_counter()
    while (not plain or not traced
           or time.perf_counter() - start < args.seconds):
        if time.perf_counter() - start > 4 * args.seconds + 60:
            raise RuntimeError("too few passes completed")
        refs.append(hostspeed.sample())
        out = runner.run_pass(NULL, WORKERS)
        if out:
            plain.append(out[0])
            ens_walls.append(out[1].traj_s)
        begin = len(tr.spans)
        out = runner.run_pass(tr, WORKERS)
        if out:
            traced.append(out[0])
            ens_walls.append(out[1].traj_s)
            traced_passes.append((tr.spans[begin:], out[1]))

    def per_pass(*names):
        return statistics.median(
            sum(s.duration for s in spans if s.name in names)
            for spans, _ in traced_passes)

    ensemble_stats = None
    if isinstance(w, workloads.EnsembleThermal):
        ensemble_stats = {"walls": {1: first[1].traj_s,
                                    WORKERS: statistics.median(ens_walls)},
                          "verdict_ms": 1e3 * per_pass("mc.innovations_test",
                                                       "mc.mse_vs_V")}
    m, cosim_parts = probes.module_probes(w, tr, WORKERS, ensemble_stats)
    if isinstance(w, workloads.CliSme):
        for sub in workloads.CLI_SUBCOMMANDS:
            m[f"cli.{sub}_ms"] = 1e3 * per_pass(f"cli.{sub}")
        m["cli.bytes_written"] = float(traced_passes[-1][1].notes["bytes_written"])
    else:
        with tr.span("cli.probe"):
            checks, written = probes.cli_probe(w, tr, workdir / "cli-probe")
        for name, ok, detail in checks:
            runner.tally.record(name, ok, detail)
        for sub in workloads.CLI_SUBCOMMANDS:
            m[f"cli.{sub}_ms"] = 1e3 * tr.named(f"cli.{sub}")[-1].duration
        m["cli.bytes_written"] = float(written)
    m["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    m["host.reference_ms"] = 1e3 * statistics.median(refs)
    samples = {"untraced_wall_s": plain, "traced_wall_s": traced,
               "host_reference_s": refs, "cosim_parts_us": cosim_parts}
    return m, samples, tr


def emit(names_units, metrics, tally, lines) -> None:
    out = {}
    for name, unit in names_units:
        if name not in metrics:
            raise RuntimeError(f"metric {name} was not measured")
        out[name] = {"value": metrics[name], "unit": unit}
    for line in lines:
        print(line)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": out}))


def run(args) -> int:
    _import_package()
    import workloads
    spec = _spec()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    host = host_info()
    try:
        w = workloads.build(args.workload, args.seed, workdir / "inputs",
                            args.size)
        runner = Runner(w, tally)
        if args.trace:
            metrics, samples, tr = traced_run(w, runner, args, workdir)
            wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
            tr.dump(OUT / f"{tag}-spans.json")
        else:
            metrics, samples = untraced_run(w, runner, args, workdir)
            wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        os.environ["QKF_THREADS"] = str(WORKERS)

    fail_ratio = tally.failed / max(tally.attempted, 1)
    lines = [f"# host {json.dumps(host)}"]
    for name, unit in wanted:
        how = ""
        raw = samples.get(name)
        if isinstance(raw, list):
            how = (f" (median of {len(raw)}, scaled to the host reference "
                   f"speed; raw median {statistics.median(raw):.6g} {unit})")
        lines.append(f"# {args.workload} {name} = {metrics[name]:.6g} {unit}{how}")
    if "host_reference_s" in samples:
        import hostspeed
        lines.append(f"# {args.workload} host reference task = "
                     f"{1e3 * statistics.median(samples['host_reference_s']):.4g}"
                     f" ms (nominal {1e3 * hostspeed.NOMINAL_S:.4g} ms)")
    parts = samples.get("cosim_parts_us")
    if parts:
        lines.append(f"# {args.workload} control.cosim_step_us "
                     f"{metrics['control.cosim_step_us']:.4g} = " + " + ".join(
                         f"{k} {v:.4g}" for k, v in parts.items()))
    lines.append(f"# {args.workload} fail_ratio = {fail_ratio:.6g} ratio "
                 f"({tally.failed} failed of {tally.attempted} operations)")
    for key in ("mse_max_rel_dev", "max_gap"):
        vals = [n[key] for n in runner.notes if key in n]
        if vals:
            lines.append(f"# {args.workload} {key} = {vals[0]:.6g} "
                         "(recorded, not gated)")
    for problem in dict.fromkeys(tally.problems):
        count = tally.problems.count(problem)
        lines.append(f"# failed check ({count}x) " + problem.replace("\n", " | "))

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "host": host, "metrics": metrics, "samples": samples,
              "fail_ratio": fail_ratio, "attempted": tally.attempted,
              "failed": tally.failed, "problems": tally.problems,
              "notes": runner.notes}
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    emit(wanted, metrics, tally, lines)
    return 0


def run_all(seed: int, seconds: float, size: str, traces) -> int:
    """Run every workload in a child process, echo its metric lines and
    check that every metric of BENCHMARK.json is printed with its unit."""
    spec = _spec()
    ok = True
    for wl in spec["workloads"]:
        for trace in traces:
            key = "per_layer" if trace else "end_to_end"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   wl["name"], "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--size", size]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=SUBPROCESS_TIMEOUT_S, cwd=ROOT,
                                  check=False)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}: "
                                f"{proc.stderr.strip()[-400:]}")
            else:
                lines = proc.stdout.strip().splitlines()
                for line in lines[:-1]:
                    if not line.startswith("# host"):
                        print(line)
                result = json.loads(lines[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                got = result.get("metrics", {})
                for m in spec[key]:
                    entry = got.get(m["name"])
                    if entry is None:
                        problems.append(f"missing {m['name']}")
                    elif entry.get("unit") != m["unit"] or not isinstance(
                            entry.get("value"), (int, float)):
                        problems.append(f"bad entry {m['name']}: {entry}")
                extra = set(got) - {m["name"] for m in spec[key]}
                if extra:
                    problems.append(f"unexpected metrics {sorted(extra)}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"== {wl['name']} trace={trace}: {status}")
            ok = ok and not problems
    return 0 if ok else 1


def stop_helpers() -> None:
    """Stop the helper processes multiprocessing may have started (fork
    server, resource tracker) and wait for them, so that no process
    outlives the benchmark whatever start method the pools used."""
    import gc
    import multiprocessing
    from multiprocessing import forkserver, resource_tracker
    gc.collect()  # finalise pools and queues before their helpers go
    multiprocessing.active_children()  # joins children that have ended
    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        helper._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, untraced and traced, tiny size")
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced, full size")
    args = parser.parse_args(argv)
    if args.smoke or args.all:
        _import_package()
        if args.smoke:
            return run_all(0, 1, "tiny", (0, 1))
        return run_all(args.seed, args.seconds, "full", (0,))
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_helpers()
    sys.exit(code)
