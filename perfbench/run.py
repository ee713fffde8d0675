"""Run one workload of the linsys benchmark and print its metrics.

    python3 perfbench/run.py --workload search --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; linsys is imported from ./src.
The workload runs as a closed loop: one caller in one process, no
threads, each operation starting when the previous one has finished. It
repeats passes over the workload's operation list for --seconds and
checks every answer. The last line of stdout is one JSON object with
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.
Full results, with the environment header, go to perfbench/out/, and a
traced run also writes its spans there.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
MAX_PROBLEMS_SHOWN = 5


class SetupError(Exception):
    """The checkout cannot run the benchmark (no linsys source, no spec)."""


def import_linsys():
    """Import linsys from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "linsys", "__init__.py")):
        raise SetupError(f"no linsys package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import linsys

    if not os.path.abspath(linsys.__file__).startswith(SRC + os.sep):
        raise SetupError(f"linsys imported from {linsys.__file__}, not {SRC}")


def load_spec():
    if not os.path.isfile(SPEC):
        raise SetupError(f"missing {SPEC}")
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def prepare(workload, seed):
    """Everything set-up time covers: import linsys, warm up the active
    kernels, generate the inputs and build the operation list."""
    import_linsys()
    import workloads

    workloads.warm_up()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    return workloads.make_workload(workload, seed, workdir)


def probe_main(args):
    """Child side of a set-up probe: prepare, report the clock, clean up."""
    wl = prepare(args.workload, args.seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    wl.close()
    print(f"ready {ready!r}")
    return 0


def measure_setup(workload, seed):
    """Times from starting a fresh interpreter to the first timed op, and
    the start-up reference times around them (one more than the set-up
    times). CLOCK_MONOTONIC is one clock for every process on the
    machine."""
    samples = []
    references = [speed.start_reference(ROOT, PROBE_TIMEOUT_S)]
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        samples.append(float(lines[1]) - start)
        references.append(speed.start_reference(ROOT, PROBE_TIMEOUT_S))
    return samples, references


def corrected_setup_s(samples, references):
    """Each set-up time rescaled by the mean start-up reference around it."""
    return [s * speed.REFERENCE_START_S / ((a + b) / 2)
            for s, a, b in zip(samples, references, references[1:])]


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import linsys.kernels
    import numpy

    try:
        numba = importlib.metadata.version("numba")
    except importlib.metadata.PackageNotFoundError:
        numba = "absent"
    return {
        "backend": linsys.kernels.ACTIVE.name,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba,
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": git_commit(),
    }


class Run:
    """Counters and samples of one measured run."""

    def __init__(self, answers):
        self.answers = answers  # op name -> pinned summary, or None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.pass_ops = []  # per complete pass, (start, seconds) of each op

    def fail(self, op_name, problem):
        self.failed += 1
        if len(self.problems) < 50:
            self.problems.append(f"{op_name}: {problem}")

    def do(self, op):
        """Run and check one op; returns its (start, latency in s)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            raw = op.run()
        except Exception as e:  # an op that raises counts as failed
            self.fail(op.name, f"{type(e).__name__}: {e}")
            return start, time.perf_counter() - start
        timing = start, time.perf_counter() - start
        try:
            problem, summary = op.check(raw)
        except Exception as e:
            problem, summary = f"check raised {type(e).__name__}: {e}", None
        if problem is None and self.answers is not None:
            pinned = self.answers.get(op.name)
            if json.loads(json.dumps(summary)) != pinned:
                problem = "answer differs from answers_seed0.json"
        if problem is not None:
            self.fail(op.name, problem)
        return timing


def measure(wl, seconds, run, speed_log, tracer=None):
    """Repeat passes until `seconds` have elapsed. Every pass completes
    except possibly the last, which stops at the deadline; op latencies
    are kept from complete passes only. The machine's speed is probed
    between ops. With a tracer, passes alternate untraced/traced. Returns
    the complete passes as (seconds, traced layer metrics or None)."""
    import spans

    passes = []
    deadline = time.perf_counter() + seconds
    index = 0
    need = 2 if tracer is not None else 1
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.counts.clear()
            first_span = len(tracer.spans)
            uninstall = spans.install(tracer)
        start = time.perf_counter()
        complete = True
        timings = []
        try:
            for op in wl.ops:
                if len(passes) >= need and time.perf_counter() >= deadline:
                    complete = False
                    break
                if tracer is not None:
                    tracer.op = f"{index}:{op.name}"
                speed_log.maybe_probe()
                timings.append(run.do(op))
        finally:
            if traced:
                uninstall()
        elapsed = time.perf_counter() - start
        if complete:
            run.pass_ops.append(timings)
            layers = None
            if traced:
                layers = spans.pass_metrics(
                    tracer.spans, first_span, tracer.counts, elapsed * 1e9
                )
            passes.append((elapsed, layers))
        index += 1
        if len(passes) >= need and time.perf_counter() >= deadline:
            speed_log.probe()
            return passes


def corrected_op_s(run, speed_log):
    """Per complete pass, each op's latency corrected for machine speed."""
    return [[speed_log.corrected(start, s) for start, s in timings]
            for timings in run.pass_ops]


def median_op_ms(corrected):
    """Each op's median corrected latency over the complete passes, in ms."""
    return [statistics.median(column) * 1e3 for column in zip(*corrected)]


def end_to_end(run, speed_log, setup):
    """Every timing is corrected for the machine's momentary speed (see
    speed.py) and summarised by medians: pass_s over complete passes,
    the op quantiles over each op's median, setup_s over the fresh
    interpreters."""
    corrected = corrected_op_s(run, speed_log)
    per_op = median_op_ms(corrected)
    return {
        "pass_s": statistics.median(sum(timings) for timings in corrected),
        "op_ms.p50": statistics.median(per_op),
        "op_ms.p90": statistics.quantiles(per_op, n=10)[-1],
        "setup_s": statistics.median(corrected_setup_s(*setup)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(passes):
    """Layer metrics of the fastest traced pass; the tracing overhead is
    the fastest traced pass minus the fastest untraced one."""
    traced_s, layers = min((p for p in passes if p[1] is not None),
                           key=lambda p: p[0])
    plain_s = min(p for p, layers in passes if layers is None)
    return dict(layers, **{"trace.overhead_ms": (traced_s - plain_s) * 1e3})


def main(argv=None):
    try:
        spec = load_spec()
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            return probe_main(args)
        import_linsys()
        setup = ([], []) if args.trace else measure_setup(args.workload, args.seed)
        wl = prepare(args.workload, args.seed)
    except (SetupError, ImportError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    import spans
    import workloads

    try:
        wl.finish_setup()
        answers = None
        if args.seed == workloads.DEFAULT_SEED:
            with open(workloads.ANSWERS_SEED0, encoding="utf-8") as fh:
                answers = json.load(fh)[args.workload]
        run = Run(answers)
        tracer = spans.Tracer() if args.trace else None
        speed_log = speed.SpeedLog()
        passes = measure(wl, args.seconds, run, speed_log, tracer)
    finally:
        wl.close()

    agreement = wl.agreement() if wl.agreement else None
    if agreement is not None:
        run.attempted += 1
        for problem in agreement:
            run.fail("backend agreement", problem)

    if args.trace:
        values = per_layer(passes)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(run, speed_log, setup)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = environment(args.seed)
    samples = {
        "passes": len(passes),
        "pass_s_each": [p for p, _ in passes],
        "ops_per_pass": len(wl.ops),
        "median_op_ms": dict(zip((op.name for op in wl.ops),
                                 median_op_ms(corrected_op_s(run, speed_log)))),
        "setup_probes_s": setup[0],
        "start_reference_s": setup[1],
        "speed_probes": len(speed_log.durations),
        "speed_probe_ms": {"min": min(speed_log.durations) * 1e3,
                           "median": statistics.median(speed_log.durations) * 1e3},
        "backend_agreement": "skipped: one backend" if agreement is None else "checked",
    }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds, "env": env,
                   "samples": samples, "problems": run.problems, **result}, fh, indent=1)
    if tracer is not None:
        tracer.write_jsonl(os.path.join(OUT, f"trace-{args.workload}.jsonl"))

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, closed loop with one caller")
    print("env " + json.dumps(env, sort_keys=True))
    print("samples " + json.dumps(samples, sort_keys=True))
    for problem in run.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"FAILED {problem}", file=sys.stderr)
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(f"error_rate {run.failed}/{run.attempted} = {run.failed / run.attempted:.6g}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
