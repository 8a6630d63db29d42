"""qeslab benchmark: CLI workloads run end to end, one fresh interpreter
per job, with a separate traced run for per-layer metrics.

    python3 perfbench/run.py --workload prove --seed 1 --seconds 30 --trace 0

The traffic is one researcher running CLI jobs back to back: a closed
loop with a single client.  A pass runs every job of the workload once,
each in a fresh interpreter; passes repeat, and the last one stops at
the first job that would overrun --seconds.  Every job's output is
checked against references independent of qeslab (see jobs.py).

--trace 0 prints the end-to-end metrics: the median over the run of
set-up time per job process, and of each job's wall time, CPU time and
peak RSS.  The three times are scaled to a reference host speed that a
probe measures while the job runs (see PROBE_REF_S); the unscaled
figures are printed beside them.  --trace 1 runs whole passes,
alternating untraced and traced ones, and prints the per-layer metrics
of the traced passes; their difference in wall time is the tracing
overhead.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Run it from the repository root; it needs src/qeslab there and writes
only under .perfbench_out/.  No hardware counters are read: every count
comes from the wrappers in tracer.py.
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
import tempfile
import time
from fractions import Fraction

import jobs as joblib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
JOB_TIMEOUT_S = 120.0

# On a shared VM each vCPU's speed for interpreted code drifts, by up to
# 1.5x within a minute and independently of the other vCPU.  So every
# SLICE_S a serial job's process is held stopped while a probe of fixed
# work is timed on the CPU the job last ran on, and the job's times are
# scaled by PROBE_REF_S / (mean probe time): to a host on which the probe
# takes PROBE_REF_S.  A parallel job is not probed: its BLAS threads use
# every CPU, and a serial probe does not follow their speed.
PROBE_STEPS = 2000
SLICE_S = 0.2
PROBE_REF_S = 0.010
SCALED = ("setup_s", "wall_s", "cpu_s")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Span names whose calls the prediction table says each workload loads;
# the traced run fails if one of them records zero calls.
LOADED = {
    "prove": [
        "verify.default_suite", "verify.verify_q2_matrix", "verify.delta4_scan",
        "generators.fermionic_gens", "weyl.mul", "weyl.apply", "weyl.restrict",
        "exactnum.matmul", "exactnum.solve",
    ],
    "sweep": [
        "weyl.restrict", "exactnum.matmul", "exactnum.charpoly",
        "exactnum.roots", "exactnum.poly_eval", "exactnum.squarefree",
        "spectral.algebraic_spectrum", "spectral.eigenvectors_y",
        "spectral.find_degeneracy",
    ],
    "charpoly": [
        "weyl.restrict", "exactnum.matmul", "exactnum.charpoly",
        "exactnum.roots", "exactnum.poly_eval",
        "spectral.symbolic_char_poly", "spectral.algebraic_spectrum",
        "spectral.eigenvectors_y",
    ],
    "crosscheck": [
        "spectral.fd", "spectral.fd.eigh", "spectral.algebraic_spectrum",
        "exactnum.charpoly", "exactnum.roots",
    ],
}


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

CPUS = sorted(os.sched_getaffinity(0))


def nproc() -> int:
    return len(CPUS)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over src/qeslab/*.py, which names the code where git cannot."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "qeslab")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def environment(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "load_average": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": nproc(),
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "not_measured": "no hardware counters; counts come from the wrappers",
    }


# ----------------------------------------------------------------------
# running jobs
# ----------------------------------------------------------------------

def probe() -> float:
    """Seconds this process takes for a fixed piece of interpreted work:
    Fraction arithmetic and dict stores, as in qeslab's exact layers."""
    began = time.perf_counter()
    acc, store = Fraction(0), {}
    for i in range(1, PROBE_STEPS):
        x = Fraction(i, 5 + (i & 3))
        store[i & 255] = x * x
        acc += store[i & 255]
    return time.perf_counter() - began


def _overlap(pauses, start: float, end: float) -> float:
    return sum(max(0.0, min(b, end) - max(a, start)) for a, b in pauses)


def probe_on(cpus, probes: list) -> None:
    """Time one probe on each of `cpus`."""
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        probes.append(probe())
    os.sched_setaffinity(0, CPUS)


def last_cpu(pid: int) -> list:
    """The CPU the process last ran on, or every CPU if that is unknown."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rpartition(")")[2].split()
        return [int(fields[36])]
    except (OSError, IndexError, ValueError):
        return CPUS


def _watch(proc, probes: list | None) -> tuple:
    """Wait for the job process.  With a probe list, stop the process
    every SLICE_S, probe the CPU it last ran on while it is stopped, and
    resume it.  Returns the pauses as (stop, resume) stamps and whether it
    timed out."""
    deadline = time.monotonic() + JOB_TIMEOUT_S
    pauses = []
    try:
        while proc.poll() is None:
            if time.monotonic() > deadline:
                return pauses, True
            if probes is None:
                try:
                    proc.wait(timeout=1.0)
                except subprocess.TimeoutExpired:
                    pass
                continue
            time.sleep(SLICE_S)
            # a job that has just ended is a zombie until reaped: the
            # signals reach nothing and the pause is harmless
            stopped = time.monotonic()
            os.kill(proc.pid, signal.SIGSTOP)
            try:
                probe_on(last_cpu(proc.pid), probes)
            finally:
                os.kill(proc.pid, signal.SIGCONT)
                pauses.append((stopped, time.monotonic()))
        return pauses, False
    finally:
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGCONT)
            proc.kill()
        proc.wait()


def run_job(job, work_dir: str, spans_path: str | None, probing: bool) -> dict:
    """One job in a fresh interpreter; returns its record and problems.

    With probing, a serial job has the probe timed every SLICE_S while its
    process is held stopped (on every CPU after the exit if it ended
    before the first pause); its times leave the pauses out, and
    `probe_s` is the mean probe time."""
    record_path = os.path.join(work_dir, f"{job.id}.json")
    out_dir = tempfile.mkdtemp(prefix=f"{job.id}-", dir=work_dir)
    argv = joblib.resolve_argv(job, out_dir)
    command = [
        sys.executable, os.path.join(HERE, "child.py"), record_path,
        spans_path or "-", job.id, "--", *argv,
    ]
    probes = [] if probing and not job.parallel else None
    stdout_path = os.path.join(out_dir, "stdout.txt")
    stderr_path = os.path.join(out_dir, "stderr.txt")
    with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(command, stdout=out, stderr=err, text=True,
                                env=child_env(), cwd=ROOT)
        pauses, timed_out = _watch(proc, probes)
    if probes == []:
        probe_on(CPUS, probes)
    with open(stdout_path) as fh:
        stdout = fh.read()
    with open(stderr_path) as fh:
        stderr = fh.read()
    if timed_out:
        shutil.rmtree(out_dir, ignore_errors=True)
        return {"job": job.id, "problems": [f"timed out after {JOB_TIMEOUT_S}s"]}
    try:
        with open(record_path) as fh:
            record = json.load(fh)
        os.remove(record_path)
    except (OSError, ValueError):
        shutil.rmtree(out_dir, ignore_errors=True)
        return {
            "job": job.id,
            "problems": [f"runner exit {proc.returncode}: {stderr.strip()[-300:]}"],
        }
    ready, start, end = record.pop("ready"), record.pop("start"), record.pop("end")
    record["setup_s"] = ready - spawned - _overlap(pauses, spawned, ready)
    record["wall_s"] = end - start - _overlap(pauses, start, end)
    record["probe_s"] = statistics.fmean(probes) if probes else None
    record["probes"] = len(probes) if probes else 0
    out_path = os.path.join(out_dir, job.out_file) if job.out_file else None
    if record["error"] is not None:
        problems = ["exception: " + record["error"].strip().splitlines()[-1]]
    else:
        try:
            problems = job.check(record["status"], stdout, out_path)
        except (ValueError, IndexError, KeyError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    shutil.rmtree(out_dir, ignore_errors=True)
    record["problems"] = problems
    record["report_lines"] = sum(
        1 for line in stdout.splitlines() if line.startswith(("EQ", "point "))
    )
    return record


def run_pass(job_list, work_dir, probing, spans_dir=None, tag="",
             stop=None) -> list:
    """Every job once, or up to the first job for which `stop(job)` is
    true."""
    records = []
    for job in job_list:
        if stop is not None and stop(job):
            break
        spans = None
        if spans_dir is not None:
            spans = os.path.join(spans_dir, f"{tag}{job.id}.tsv")
        began = time.monotonic()
        record = run_job(job, work_dir, spans, probing)
        record["took_s"] = time.monotonic() - began
        records.append(record)
    return records


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def tail_percentile(samples):
    """Highest whole percentile with at least ten samples above it, or
    None when that is not above the median."""
    n = len(samples)
    level = (100 * (n - 10)) // n if n > 10 else 0
    if level <= 50:
        return None
    ordered = sorted(samples)
    return level, ordered[n - 11]


def describe(name, unit, samples) -> str:
    text = (f"{name} = {statistics.median(samples):.6g} {unit} "
            f"(median of {len(samples)})")
    tail = tail_percentile(samples)
    if tail is not None:
        text += f", p{tail[0]} = {tail[1]:.6g} {unit}"
    return text


def job_samples(passes, scaled=True) -> dict:
    """{job: {metric: [one sample per pass]}} over the completed jobs.
    Scaled, a probed job's times are taken to the reference speed at
    which the probe takes PROBE_REF_S."""
    out = {}
    for record in (r for p in passes for r in p if "wall_s" in r):
        into = out.setdefault(record["job"], {})
        factor = 1.0
        if scaled and record["probe_s"] is not None:
            factor = PROBE_REF_S / record["probe_s"]
        for key in END_TO_END_UNITS:
            value = record[key]
            if key in SCALED:
                value *= factor
            into.setdefault(key, []).append(value)
    return out


def end_to_end(samples) -> dict:
    """Each job's median over the run; wall and CPU time sum them over
    the workload's jobs, peak RSS takes the largest.  A per-job median
    keeps one job's noisy pass from pairing with another job's."""
    if not samples:
        return {}
    per_job = {
        key: [statistics.median(s[key]) for s in samples.values()]
        for key in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    return {
        "setup_s": statistics.median(
            x for s in samples.values() for x in s["setup_s"]
        ),
        "wall_s": sum(per_job["wall_s"]),
        "cpu_s": sum(per_job["cpu_s"]),
        "peak_rss_mb": max(per_job["peak_rss_mb"]),
    }


def _merge_traces(records):
    spans, counters = {}, {}
    for r in records:
        for name, entry in r["trace"]["spans"].items():
            into = spans.setdefault(
                name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
            )
            for key, value in entry.items():
                into[key] += value
        for name, value in r["trace"]["counters"].items():
            # sizes take the largest over the jobs; counts add up
            if name.endswith("dim"):
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
    return spans, counters


def layer_metrics(records) -> tuple:
    """Per-layer metrics of one traced pass, its merged spans, and the
    self time of each layer."""
    spans, counters = _merge_traces(records)

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def layer(prefix, key):
        return sum(e[key] for n, e in spans.items() if n.split(".")[0] == prefix)

    m = {}
    walls = {r["job"]: r["wall_s"] for r in records}
    for job_id in joblib.job_ids():
        m[f"cli.{job_id}_s"] = walls.get(job_id, 0.0)
    m["verify.relations"] = sum(r["report_lines"] for r in records)
    m["verify.self_s"] = layer("verify", "self_s")
    m["verify.q2_matrix_s"] = get("verify.verify_q2_matrix", "inclusive_s")
    m["verify.scan_s"] = get("verify.delta4_scan", "inclusive_s")
    m["generators.calls"] = layer("generators", "calls")
    m["generators.self_s"] = layer("generators", "self_s")
    m["weyl.mul.calls"] = get("weyl.mul", "calls")
    m["weyl.mul.term_pairs"] = counters.get("weyl.mul.term_pairs", 0)
    m["weyl.mul.self_s"] = get("weyl.mul", "self_s")
    for short in ("apply", "restrict"):
        m[f"weyl.{short}.calls"] = get(f"weyl.{short}", "calls")
        m[f"weyl.{short}.self_s"] = get(f"weyl.{short}", "self_s")
    products = counters.get("exactnum.matmul.products", 0)
    m["exactnum.matmul.calls"] = get("exactnum.matmul", "calls")
    m["exactnum.matmul.products"] = products
    m["exactnum.matmul.useful_share"] = (
        counters.get("exactnum.matmul.useful", 0) / products if products else 0.0
    )
    m["exactnum.matmul.self_s"] = get("exactnum.matmul", "self_s")
    m["exactnum.charpoly.calls"] = get("exactnum.charpoly", "calls")
    m["exactnum.charpoly.max_dim"] = counters.get("exactnum.charpoly.max_dim", 0)
    m["exactnum.charpoly_s"] = get("exactnum.charpoly", "inclusive_s")
    m["exactnum.roots.calls"] = get("exactnum.roots", "calls")
    m["exactnum.roots_s"] = get("exactnum.roots", "inclusive_s")
    m["exactnum.poly_eval.calls"] = get("exactnum.poly_eval", "calls")
    m["exactnum.poly_eval.self_s"] = get("exactnum.poly_eval", "self_s")
    m["exactnum.squarefree.self_s"] = get("exactnum.squarefree", "self_s")
    m["exactnum.nullspace_s"] = get("exactnum.nullspace", "inclusive_s")
    m["exactnum.solve.self_s"] = get("exactnum.solve", "self_s")
    m["spectral.spectrum.calls"] = get("spectral.algebraic_spectrum", "calls")
    m["spectral.spectrum_s"] = get("spectral.algebraic_spectrum", "inclusive_s")
    m["spectral.symbolic_charpoly_s"] = get(
        "spectral.symbolic_char_poly", "inclusive_s"
    )
    m["spectral.eigvec_s"] = get("spectral.eigenvectors_y", "inclusive_s")
    m["spectral.gap_search_s"] = get("spectral.find_degeneracy", "inclusive_s")
    m["spectral.fd.dim"] = counters.get("spectral.fd.dim", 0)
    m["spectral.fd.bytes_computed"] = counters.get("spectral.fd.bytes_computed", 0)
    m["spectral.fd.assemble_s"] = get("spectral.fd", "self_s")
    m["spectral.fd.eigh_s"] = get("spectral.fd.eigh", "inclusive_s")
    traced_wall = sum(r["wall_s"] for r in records)
    self_total = sum(e["self_s"] for e in spans.values())
    m["trace.coverage"] = self_total / traced_wall if traced_wall else 0.0
    layers = {prefix: layer(prefix, "self_s") for prefix in
              ("cli", "verify", "generators", "weyl", "exactnum", "spectral")}
    return m, spans, layers


PER_LAYER_UNITS = {
    "calls": "count", "term_pairs": "count", "products": "count",
    "useful_share": "ratio", "max_dim": "count", "relations": "count",
    "dim": "count", "bytes_computed": "B", "coverage": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(joblib.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qeslab", "cli.py")):
        print(f"error: no qeslab sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    spans_dir = os.path.join(run_dir, "spans") if args.trace else None
    if spans_dir:
        os.makedirs(spans_dir)
    record = {"environment": environment(args)}
    job_list = joblib.make_jobs(args.workload, args.seed)
    record["inputs"] = {job.id: job.argv for job in job_list}
    print("# environment " + json.dumps(record["environment"]))

    # compile the package once, untimed, as an installed copy would be
    subprocess.run([sys.executable, "-c", "import qeslab.cli"],
                   env=child_env(), check=True, cwd=ROOT)

    plain, traced = [], []
    start = time.monotonic()

    def overruns(job) -> bool:
        """Would the job, taking its median time so far, end past --seconds?"""
        took = [r["took_s"] for p in plain for r in p if r["job"] == job.id]
        return bool(took) and (time.monotonic() - start
                               + statistics.median(took) > args.seconds)

    if args.trace:
        # whole passes, alternating untraced and traced, at least one each;
        # no probing, so that spans hold no pauses and the two compare
        durations = []
        while True:
            began = time.monotonic()
            if len(traced) < len(plain):
                traced.append(run_pass(job_list, run_dir, False, spans_dir,
                                       tag=f"pass{len(traced)}-"))
            else:
                plain.append(run_pass(job_list, run_dir, False))
            durations.append(time.monotonic() - began)
            elapsed = time.monotonic() - start
            if traced and elapsed + statistics.median(durations) > args.seconds:
                break
    else:
        # every job at least once, then each job while it still fits
        while True:
            plain.append(run_pass(job_list, run_dir, True, stop=overruns))
            if len(plain[-1]) < len(job_list):
                break

    all_records = [r for p in plain + traced for r in p]
    problems = [f"{r['job']}: {msg}" for r in all_records for msg in r["problems"]]
    failed = sum(1 for r in all_records if r["problems"])
    attempted = len(all_records)
    samples = job_samples(plain)
    e2e = end_to_end(samples)
    print(f"# workload={args.workload} seed={args.seed} passes={len(plain)}"
          f"+{len(traced)} traced, jobs attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:.6g}")
    print("# " + describe("setup_s", "s", [
        x for s in samples.values() for x in s["setup_s"]]))
    for job, s in samples.items():
        print(f"# {job}: " + "; ".join(
            describe(key, END_TO_END_UNITS[key], s[key])
            for key in ("wall_s", "cpu_s", "peak_rss_mb")))
    for name, value in e2e.items():
        print(f"# {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    probes = [r["probe_s"] for p in plain for r in p if r.get("probe_s")]
    if probes:
        raw = end_to_end(job_samples(plain, scaled=False))
        print(f"# unscaled: " + ", ".join(
            f"{k} = {raw[k]:.6g} s" for k in SCALED) +
            f"; probe median {statistics.median(probes) * 1e3:.4g} ms "
            f"against {PROBE_REF_S * 1e3:g} ms")

    if args.trace:
        per_pass = [layer_metrics(p) for p in traced if all("trace" in r for r in p)]
        metrics = {}
        if per_pass:
            for name in per_pass[0][0]:
                value = statistics.median(m[name] for m, _, _ in per_pass)
                metrics[name] = {"value": value, "unit": layer_unit(name)}
            traced_wall = end_to_end(job_samples(traced))["wall_s"]
            metrics["trace.overhead_s"] = {
                "value": traced_wall - e2e.get("wall_s", 0.0), "unit": "s",
            }
            spans = per_pass[-1][1]
            for name in LOADED[args.workload]:
                if spans.get(name, {}).get("calls", 0) == 0:
                    problems.append(f"trace: {name} recorded no calls on "
                                    f"{args.workload}")
            layers = per_pass[-1][2]
            wall = sum(r["wall_s"] for r in traced[-1])
            print("# layer self time (last traced pass): " + ", ".join(
                f"{k}={v:.4g}s ({v / wall:.1%})" for k, v in layers.items()))
        else:
            problems.append("trace: no complete traced pass")
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in e2e.items()
        }
    for msg in problems[:20]:
        print(f"# problem: {msg}")

    record.update(samples=samples, problems=problems, metrics=metrics,
                  records=all_records)
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    correct = not problems and len(metrics) > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
