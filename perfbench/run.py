"""Run one benchmark workload closed-loop and print its metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; hypermono is imported from its ``src``.
The run times the set-up in fresh processes (``probe.py``), repeats it
in-process so caches are warm, then runs jobs one after another (closed loop,
one client) for about ``--seconds``, at least MIN_JOBS of them.  Every job's
output is checked against ``reference.json``.  The first job runs with the
span wrappers on, which count the work every job does.  Times are in
quiet-host seconds, as ``hostclock.py`` reads them.  With
``--trace 0`` the last line of stdout carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` every job is traced, the line carries the
per-layer metrics, and the spans are written to ``.perfbench_out/``.
``--smoke`` runs tiny inputs, for the benchmark's own tests.

Every workload's inputs are fixed (see workloads.py), so ``--seed`` only
names the run: the same seed gives the same inputs because every seed does.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import median

from hostclock import HostClock
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3  # measured fresh-process set-ups; one more runs first to warm the file cache
MIN_JOBS = 3
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_LAYERS = ("monodromy.build_rep", "monodromy.standardized", "fuchsian.build_domain")


@dataclass
class Job:
    id: str
    start: float  # perf_counter
    seconds: float  # wall
    traced: bool
    obs: dict
    problems: list


def probe(name, size, traced):
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), name, size, str(int(traced))],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def run_job(workload, ref, tracer, job_id, traced):
    gc.collect()  # each job starts without the last one's garbage, as in a fresh process
    span = tracer.span("job", job=job_id) if traced else nullcontext()
    start = time.perf_counter()
    try:
        with span:
            raw = workload.run()
        seconds = time.perf_counter() - start
        obs = workload.observe(raw)
        problems = workload.check(obs, ref)
    except Exception as exc:  # a job that raises is a failed job; the run goes on
        seconds = time.perf_counter() - start
        obs, problems = {"bytes_out": 0, "sha256": {}}, [f"{type(exc).__name__}: {exc}"]
    return Job(job_id, start, seconds, traced, obs, problems)


def _ratio(num, den):
    return num / den if den else 0.0


def job_layers(tracer, job, clock):
    """Per-layer metrics of one traced job, times on the host clock."""
    speed = clock.speed(job.start, job.start + job.seconds)

    def length(s):
        return clock.busy(s.start, s.end) * speed

    pairs = tracer.job_spans(job.id, length)

    def total(name, key=None):
        return sum(s.counts.get(key, 0) if key else length(s) for s, _ in pairs if s.name == name)

    def self_s(name):
        return sum(t for s, t in pairs if s.name == name)

    geo, ball, lcs = "fuchsian.geodesic_sample", "dynamics.enumerate_ball", "dynamics.limit_curve_samples"
    lyap, cusp = "dynamics.lyapunov_mc", "dynamics.rational_limit_classify"
    events, words, cusp_words = total(geo, "events"), total(ball, "words"), total(cusp, "words")
    lyap_self, cli_self = self_s(lyap), self_s("job")
    return {
        f"{geo}.s": total(geo),
        f"{geo}.calls": sum(s.name == geo for s, _ in pairs),
        f"{geo}.events": events,
        f"{geo}.events_per_s": _ratio(events, total(geo)),
        f"{ball}.s": total(ball),
        f"{ball}.words": words,
        f"{ball}.words_per_s": _ratio(words, total(ball)),
        f"{ball}.unique_ratio": _ratio(words, total(ball, "reduced_words")),
        "dynamics.anosov_certificate.s": total("dynamics.anosov_certificate"),
        f"{lcs}.s": total(lcs),
        f"{lcs}.samples": total(lcs, "samples"),
        f"{lcs}.samples_per_word": _ratio(total(lcs, "samples"), total(lcs, "ball_words")),
        f"{lyap}.s": total(lyap),
        f"{lyap}.self_s": lyap_self,
        f"{lyap}.events_per_self_s": _ratio(events, lyap_self),
        f"{lyap}.kept_ratio": _ratio(total(lyap, "kept"), total(lyap, "ntraj")),
        f"{lyap}.sym_resid": max((s.counts["sym_resid"] for s, _ in pairs if s.name == lyap),
                                 default=0.0),
        f"{lyap}.max_err": job.obs.get("lyap_max_err", 0.0),
        f"{cusp}.s": total(cusp),
        f"{cusp}.words": cusp_words,
        f"{cusp}.words_per_s": _ratio(cusp_words, total(cusp)),
        "cli.self_s": cli_self,
        "cli.bytes_out": job.obs["bytes_out"],
        "cli.bytes_per_self_s": _ratio(job.obs["bytes_out"], cli_self),
        "trace.overhead_s": sum(s.overhead for s, _ in pairs),
        "host.speed": speed,
    }


def layer_metrics(tracer, probes, jobs, clock):
    per_job = [job_layers(tracer, j, clock) for j in jobs if j.traced]
    values = {key: median(d[key] for d in per_job) for key in per_job[0]}
    for name in SETUP_LAYERS:
        values[f"{name}.s"] = median(p["layers"].get(name, 0.0) for p in probes)
    return values


def measure(name, seed, seconds, traced, size, reference, bench, log=print):
    """Run one workload and return the result object of the last output line."""
    import workloads

    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    workload = workloads.WORKLOADS[name](size, workdir)
    tracer = Tracer()
    probes = [probe(name, size, traced) for _ in range(SETUP_PROBES + 1)][1:]
    try:
        with HostClock() as clock:
            workload.setup()
            jobs = []
            start = time.perf_counter()
            while True:
                # the first job always runs wrapped: its spans count the work every job does
                wrapped = traced or not jobs
                with tracer.patched() if wrapped else nullcontext():
                    jobs.append(run_job(workload, reference, tracer, f"job{len(jobs)}", wrapped))
                elapsed = time.perf_counter() - start
                if len(jobs) >= MIN_JOBS and elapsed + jobs[-1].seconds > seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    job_s = [clock.seconds(j.start, j.start + j.seconds) for j in jobs]

    first = jobs[0]
    for j in jobs[1:]:
        if j.obs["sha256"] != first.obs["sha256"]:
            j.problems.append("output bytes differ from job0's")
    failed = sum(bool(j.problems) for j in jobs)
    digests = reference["sha256"]
    names = sorted(set(digests) | set(first.obs["sha256"]))
    changed = ", ".join(n for n in names if digests.get(n) != first.obs["sha256"].get(n)) or "no"

    log(f"# {name} seed={seed} size={size} trace={int(traced)}")
    for j, s in zip(jobs, job_s):
        note = "; ".join(j.problems) if j.problems else "ok"
        log(f"#   {j.id:>5} {s:9.4f} s (wall {j.seconds:9.4f} s, host speed "
            f"{clock.speed(j.start, j.start + j.seconds):.2f}) "
            f"{'wrapped ' if j.traced else ''}{note}")
    log(f"#   fail_frac {failed}/{len(jobs)}")
    log(f"#   output_changed: {changed}")
    if "lyap_max_err" in first.obs:
        log(f"#   lyap_max_err {first.obs['lyap_max_err']:.6g}")

    if traced:
        values = layer_metrics(tracer, probes, jobs, clock)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{name}-seed{seed}.json"
        trace_file.write_text(json.dumps({
            "setup": [p["spans"] for p in probes],
            "jobs": [asdict(s) for s in tracer.spans],
        }))
        log(f"#   spans written to {trace_file.relative_to(ROOT)}")
        wanted = bench["per_layer"]
    else:
        counts = Counter()
        for s, _ in tracer.job_spans(first.id):
            counts.update(s.counts)
        try:
            work = workload.work(first.obs, counts)
        except KeyError:  # job0 failed, so the run is already marked failed
            work = 0
        values = {
            "job_s": median(job_s),
            "work_per_s": median(work / s for s in job_s),
            "setup_s": median(p["setup_s"] for p in probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = bench["end_to_end"]
    return {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="names the run; inputs are fixed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hypermono" / "__init__.py").is_file():
        print(f"error: no hypermono source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_THREADS)  # before numpy is first imported, here and in probes
    sys.path.insert(0, str(ROOT / "src"))
    size = "smoke" if args.smoke else "full"
    references = json.loads((HERE / "reference.json").read_text())[size]
    if args.workload not in references:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), size,
                     references[args.workload], bench)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
