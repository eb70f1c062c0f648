"""dissipctl benchmark: CLI-level end-to-end metrics and a traced per-layer run.

    python3 bench/run.py --workload {certify,dynamics,synthesis} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is used from ``src/``.

``--trace 0`` runs the workload's jobs as fresh ``dissipctl`` processes, one
after another: every job once, then more samples of each while they fit in
``--seconds`` (see ``cli_runs``).  It reports ``setup_s``, the median over
``SETUP_REPS`` fresh interpreters, spread evenly over the same ``--seconds``,
that import ``dissipctl.cli`` and build every model, or parse every input
file, that the workload's jobs use; ``wall_s``, a pass timed as the sum of the
per-job median times; and ``peak_rss_mb``.  The same
sum over each subcommand's jobs is printed and kept in the result file.

``--trace 1`` runs one pass of CLI processes for the per-subcommand times
(``check_s`` ...; import included), then the same jobs in-process through
``dissipctl.cli.main`` in three passes: traced, untraced, traced (see
``layers.py``).  It reports those times, the per-layer metrics of the first
traced pass, the traced over untraced wall time, and whether the counts in
``layers.REPEATABLE`` repeat exactly in the second traced pass.

Every report is checked against its reference (``workloads.py``,
``checks.py``); the run exits 1 when a job fails.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; a result file with the
environment, the job list and every pass goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

# One BLAS thread: the host has two cores and is shared, and a single thread
# keeps the timings of the dense eigensolves steady.  The variables must be
# set before numpy is first imported, so the modules that import numpy are
# imported inside functions.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

JOB_TIMEOUT_S = 90.0
SETUP_REPS = 7
SUBCOMMANDS = ("check", "scale", "simulate", "synthesize")

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import dissipctl.cli
from dissipctl import models, serialize
spec = json.loads(sys.argv[1])
for name in spec["models"]:
    models.build(name)
for path in spec["inputs"]:
    with open(path) as handle:
        serialize.matrix_from_json(json.load(handle)["V"], "V")
print(time.perf_counter() - t0)
"""


class JobTimeout(Exception):
    pass


# -- processes -------------------------------------------------------------------


def run_process(argv, env, stdout_path: Path, stderr_path: Path, timeout: float):
    """Run to completion; returns (exit code, wall s, max RSS MB, timed out)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        expired = threading.Event()

        def kill():
            expired.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, expired.is_set()


def job_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({name: str(BLAS_THREADS) for name in BLAS_ENV})
    return env


def cli_runs(jobs, env, workdir: Path, seconds: float,
             setup_reps: int = 0) -> tuple[list[dict], list[float]]:
    """Run every job once as a fresh CLI process, then, while time is left in
    ``seconds``, run again the job with the least total time so far among those
    whose median time still fits.

    Every job thus gets about the same share of the run: cheap jobs, whose
    times are noisier, get many samples and expensive ones at least one.
    Each report is checked right after its job, outside its timed region.
    Between jobs, ``setup_reps`` set-up interpreters (``measure_setup``) are
    run at even intervals of the same ``seconds``, so that ``setup_s`` and the
    job times see the same stretch of host speed; their times are returned
    beside the job records.
    """
    from checks import check_output

    workdir.mkdir(parents=True, exist_ok=True)
    records, setups = [], []
    times = [[] for _ in jobs]
    spec = setup_spec(jobs)
    start = time.perf_counter()

    def setups_due():
        while (len(setups) < setup_reps
               and time.perf_counter() - start >= len(setups) * seconds / setup_reps):
            setups.append(measure_setup(spec, env))

    def run(i):
        job = jobs[i]
        out, err = workdir / f"job{i}.out", workdir / f"job{i}.err"
        code, wall, rss, timed_out = run_process(
            [sys.executable, "-m", "dissipctl.cli", *job.argv], env, out, err, JOB_TIMEOUT_S)
        problems = ["timeout"] if timed_out else check_output(job, code, out.read_text())
        records.append({"id": job.id, "exit": code, "wall_s": wall, "max_rss_mb": rss,
                        "problems": problems})
        times[i].append(wall)

    for i in range(len(jobs)):
        setups_due()
        run(i)
    while True:
        setups_due()
        reserved = (setup_reps - len(setups)) * statistics.median(setups) if setups else 0.0
        left = seconds - (time.perf_counter() - start) - reserved
        fits = [i for i in range(len(jobs)) if statistics.median(times[i]) <= left]
        if not fits:
            break
        run(min(fits, key=lambda i: sum(times[i])))
    while len(setups) < setup_reps:
        setups.append(measure_setup(spec, env))
    return records, setups


@contextlib.contextmanager
def alarm(seconds: float):
    def expire(signum, frame):
        raise JobTimeout(f"no result after {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def inprocess_pass(jobs, cli, tracer=None) -> dict:
    """One pass through ``cli.main`` in this process, under ``tracer`` if one is
    given.  The reports are checked after the tracer is uninstalled, so the
    checks' own calls into dissipctl are not traced."""
    from checks import check_output

    records, outputs = [], []
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        for job in jobs:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            problem = None
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                        alarm(JOB_TIMEOUT_S):
                    code = cli.main(list(job.argv))
            except (Exception, SystemExit) as exc:  # a crash is a failed job, not a failed run
                code, problem = None, f"{type(exc).__name__}: {exc}"
            records.append({"id": job.id, "exit": code, "wall_s": time.perf_counter() - t0})
            outputs.append((problem, out.getvalue()))
        wall = time.perf_counter() - start
    for job, rec, (problem, stdout) in zip(jobs, records, outputs):
        rec["problems"] = [problem] if problem else check_output(job, rec["exit"], stdout)
    return {"wall_s": wall, "jobs": records}


# -- measurements ----------------------------------------------------------------


def setup_spec(jobs) -> str:
    return json.dumps({"models": sorted({m for job in jobs for m in job.models}),
                       "inputs": sorted({p for job in jobs for p in job.inputs})})


def measure_setup(spec: str, env) -> float:
    """Set-up time of one fresh interpreter for the models and inputs in ``spec``."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, spec], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def pass_times(jobs, records: list[dict]) -> dict:
    """Per-job median times summed over a pass (``wall_s``) and over each
    subcommand's jobs (``check_s``, ...)."""
    median = {job.id: statistics.median(r["wall_s"] for r in records if r["id"] == job.id)
              for job in jobs}
    times = {"wall_s": (sum(median.values()), "s")}
    for sub in SUBCOMMANDS:
        times[f"{sub}_s"] = (sum(median[job.id] for job in jobs if job.command == sub), "s")
    return times


# -- environment -----------------------------------------------------------------


def git_commit() -> str | None:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dissipctl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(workload: str, seed: int, jobs) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS,
                 "env": {name: os.environ.get(name) for name in BLAS_ENV}},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
        "jobs": [{"id": job.id, "argv": job.argv} for job in jobs],
    }


# -- main ------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_untraced(args, jobs, tag: str):
    records, setup = cli_runs(jobs, job_env(), OUT / f"jobs-{tag}", args.seconds, SETUP_REPS)
    times = pass_times(jobs, records)
    metrics = {"setup_s": (statistics.median(setup), "s"), "wall_s": times.pop("wall_s"),
               "peak_rss_mb": (max(r["max_rss_mb"] for r in records), "MB")}
    return metrics, records, {"setup_s": setup, "subcommand_s": {k: v[0] for k, v in times.items()}}


def run_traced(args, jobs, tag: str):
    import dissipctl.cli as cli
    from layers import REPEATABLE, Tracer, per_layer_metrics

    # one pass of CLI processes for the per-subcommand times, import included
    cli_records, _ = cli_runs(jobs, job_env(), OUT / f"jobs-{tag}", 0.0)
    times = pass_times(jobs, cli_records)
    del times["wall_s"]
    # traced, untraced, traced: first-call costs land in a traced pass, and the
    # overhead ratio compares the untraced pass with the mean of both traced ones
    tracers, passes = [], []
    for traced in (True, False, True):
        tracer = Tracer() if traced else None
        passes.append(inprocess_pass(jobs, cli, tracer))
        if traced:
            tracers.append(tracer)
    untraced_wall = passes[1]["wall_s"]
    traced_wall = (passes[0]["wall_s"] + passes[2]["wall_s"]) / 2
    layer = [{**times, **per_layer_metrics(tracer)} for tracer in tracers]
    for metrics in layer:
        metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    with gzip.open(OUT / f"spans-{tag}.json.gz", "wt") as handle:
        json.dump({"fields": ["name", "start", "end", "parent"],
                   "spans": tracers[0].spans}, handle)
    repeat = {name: {"first": layer[0][name][0], "second": layer[1][name][0],
                     "exact": layer[0][name][0] == layer[1][name][0]} for name in REPEATABLE}
    extra = {"passes_wall_s": [p["wall_s"] for p in passes], "repeat": repeat,
             "per_layer_second": {k: v[0] for k, v in layer[1].items()}}
    return layer[0], cli_records + [rec for p in passes for rec in p["jobs"]], extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dissipctl" / "cli.py").is_file():
        print(f"bench: no dissipctl sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "dissipctl")],
                   check=True, stdout=subprocess.DEVNULL)
    tag = f"{args.workload}-seed{args.seed}"
    jobs = workloads.build_jobs(args.workload, args.seed, OUT / f"inputs-seed{args.seed}")
    from dissipctl.models import build

    workloads.resolve_refs(jobs, build)
    env_block = environment(args.workload, args.seed, jobs)

    runner = run_traced if args.trace else run_untraced
    metrics, records, extra = runner(args, jobs, tag)

    failures = [rec for rec in records if rec["problems"]]
    fail_ratio = len(failures) / len(records)
    result = {"environment": env_block, "trace": args.trace, "seconds": args.seconds,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "fail_ratio": fail_ratio, "attempted": len(records), "failed": len(failures),
              "runs": records, **extra}
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))

    kind = ("one CLI pass and 3 in-process passes (traced, untraced, traced)" if args.trace
            else "CLI processes")
    print(f"bench: {args.workload} seed {args.seed}: {len(records)} runs of {len(jobs)} jobs "
          f"as {kind}, "
          f"BLAS {env_block['blas']['name']} {env_block['blas']['version']}, "
          f"{BLAS_THREADS} thread(s), nproc {env_block['nproc']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    for name, value in extra.get("subcommand_s", {}).items():
        print(f"  {name:<40} {value:>16.6g} s (per-layer metric in --trace 1)")
    print(f"  {'fail_ratio':<40} {fail_ratio:>16.6g} ratio ({len(failures)} of {len(records)} jobs)")
    for name, rep in extra.get("repeat", {}).items():
        state = "repeats" if rep["exact"] else f"differs ({rep['first']} vs {rep['second']})"
        print(f"  {name} {state} across two traced passes")
    for rec in failures:
        print(f"  FAILED {rec['id']}: {'; '.join(rec['problems'])}")
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures),
                      "metrics": result["metrics"]}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
