"""wpoisson benchmark: the closed loop that runs the jobs and reports.

    python3 perfbench/run.py --workload catalog|groebner|extension \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It makes the seeded
job list (``inputs.py``) and runs it as a closed loop, one job at a time,
each job in a fresh worker interpreter (``worker.py``) so the package's
memos start cold, as they do for every CLI user.  The number of jobs is
fixed by the workload and ``--seconds`` (``count`` in ``inputs.py``), never
by the clock, so a seed gives the same operations, and the same
``attempted`` and ``failed`` counts, on any machine.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs half the jobs untraced, reruns the same jobs with
every layer wrapped (``layers.py``), requires identical result digests,
and prints the per-layer metrics.

Every run writes a record to ``perfbench/out/``: Python version, nproc,
commit, source digest, seed, each operation's input, latency, status and
digest, and the text of every refused input.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import ops  # noqa: E402

HARD_LIMIT_S = 170.0     # every run ends within 180 s
SETUP_SAMPLES = 11       # cold set-ups per run, at least
# operations that count as failed; "stopped" (past the benchmark's own
# time budget) is neither failed nor verified, see NOTE.md
FAILED = ("refused", "error", "wrong")


class BenchError(RuntimeError):
    pass


def spawn(root, job, deadline, traced=False):
    """one cold worker; returns (set-up seconds, result or None)"""
    cmd = [sys.executable, str(HERE / "worker.py")] + (["--trace"] if traced else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if ready.strip() != "ready":
            proc.communicate(timeout=10)
            raise BenchError("worker failed during set-up (exit %s)" % proc.returncode)
        payload = json.dumps(job) + "\n" if job is not None else ""
        out, _ = proc.communicate(payload, timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker passed the run's time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError("worker exited with %d" % proc.returncode)
    res = json.loads(out.strip().splitlines()[-1])
    for r in res.get("ops", []):
        r["ref_s"] = ops.scaled(r["latency_s"], r["calib_s"])
    return ops.scaled(setup, statistics.median(res["setup_calib_s"])), res


def run_jobs(root, gen, count, deadline, traced=False):
    """jobs 0..count-1, one cold worker each"""
    jobs = []
    for k in range(count):
        job = {"ops": gen.job(k), "selftest": k == 0}
        setup, res = spawn(root, job, deadline, traced)
        jobs.append({"index": k, "job": job, "setup_s": setup, "result": res,
                     "traced": traced})
    return jobs


def job_wall(j, key="ref_s"):
    """reference-speed seconds of a job's operations (key="latency_s": raw)"""
    return sum(r[key] for r in j["result"]["ops"])


def flatten(jobs):
    for j in jobs:
        for op, r in zip(j["job"]["ops"], j["result"]["ops"]):
            yield op, r


def correctness(jobs):
    """problems that make the run incorrect (refusals are not among them)"""
    problems = []
    seen = {}
    for op, r in flatten(jobs):
        if r["status"] in ("error", "wrong"):
            problems.append("%s: %s" % (ops.input_text(op), r["error"]))
        if r["digest"] is not None:
            key = ops.input_text(op)
            if seen.setdefault(key, r["digest"]) != r["digest"]:
                problems.append("%s: result differs between repeats" % key)
    tests = jobs[0]["result"]["selftest"]
    if not tests:
        problems.append("checker self-test did not run")
    for key, caught in sorted(tests.items()):
        if not caught:
            problems.append("checker accepted a corrupted %s result" % key)
    return problems


def quantile(values, q, half_width=0.05):
    """the q-quantile as the mean of the values ranked within half_width
    of it: a run's operations are few and unlike, and one operation's
    noise moves a single order statistic by a whole step"""
    v = sorted(values)
    lo = min(len(v) - 1, round(len(v) * (q - half_width)))
    hi = max(lo + 1, round(len(v) * (q + half_width)))
    return sum(v[lo:hi]) / (hi - lo)


def end_to_end(jobs, setups):
    lat = [r["ref_s"] for _, r in flatten(jobs)]
    verified = sum(1 for _, r in flatten(jobs) if r["status"] == "ok")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(lat) / len(jobs),
        "ops_per_s": verified / sum(lat),
        "op_p50_s": quantile(lat, 0.5),
        "op_p90_s": quantile(lat, 0.9),
        "ok_share": verified / len(lat),
        "peak_rss_mb": statistics.median(j["result"]["peak_rss_mb"] for j in jobs),
    }


def _add(acc, data):
    for name, (calls, self_s) in data["spans"].items():
        c = acc["spans"].setdefault(name, [0, 0.0])
        c[0] += calls
        c[1] += self_s
    for key in ("counters", "catalog_checks"):
        for name, v in data[key].items():
            if name.endswith("max_cols"):
                acc[key][name] = max(acc[key].get(name, 0), v)
            else:
                acc[key][name] = acc[key].get(name, 0) + v


def matched(untraced, traced):
    """(untraced, traced) result pairs of the operations run both ways"""
    for j, t in zip(untraced, traced):
        yield from zip(j["result"]["ops"], t["result"]["ops"])


def per_layer(untraced, traced):
    run = {"spans": {}, "counters": {}, "catalog_checks": {}}
    setup = {"spans": {}, "counters": {}, "catalog_checks": {}}
    caches = {"complexes": [0, 0], "jacobian": [0, 0]}
    for j in traced:
        _add(run, j["result"]["layers"])
        _add(setup, j["result"]["setup_layers"])
        for name, (hits, misses) in j["result"]["caches"].items():
            caches[name][0] += hits
            caches[name][1] += misses
    values = {}
    for name, (calls, self_s) in run["spans"].items():
        values[name + ".calls"] = calls
        values[name + ".self_s"] = self_s
    for name, (calls, self_s) in setup["spans"].items():
        values["setup.%s.calls" % name] = calls
        values["setup.%s.self_s" % name] = self_s
    ctr = run["counters"]
    for name in ("linalg.rank.cells", "linalg.rank.nnz", "linalg.rank.max_cols",
                 "complexes.assemble.rows", "complexes.assemble.cols",
                 "jacobian.buchberger.basis_len"):
        values[name] = ctr.get(name, 0)
    rows = ctr.get("linalg.rank.rows", 0)
    values["linalg.rank.pivot_share"] = ctr.get("linalg.rank.rank_sum", 0) / rows if rows else 0.0
    nf_calls = run["spans"].get("jacobian.normal_form", [0])[0]
    values["jacobian.normal_form.zero_share"] = \
        ctr.get("jacobian.normal_form.zero", 0) / nf_calls if nf_calls else 0.0
    for name, (hits, misses) in caches.items():
        values[name + ".cache.hits"] = hits
        values[name + ".cache.misses"] = misses
        values[name + ".cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for name, total in run["catalog_checks"].items():
        values[name + ".total_s"] = total
    # layer times are raw seconds, so they add up to the raw traced wall
    traced_wall = sum(job_wall(j, "latency_s") for j in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = sum(job_wall(j, "latency_s")
                                          for j in untraced[:len(traced)])
    # over operations that finished both ways, at reference speed, so
    # neither budgets nor machine drift between the two runs distort it
    pairs = [(a["ref_s"], b["ref_s"]) for a, b in matched(untraced, traced)
             if a["status"] == b["status"] == "ok"]
    values["trace.overhead_share"] = \
        sum(b for _, b in pairs) / sum(a for a, _ in pairs) - 1 if pairs else 0.0
    values["trace.probe_s"] = run["spans"].get("trace.probe", [0, 0.0])[1]
    values["trace.unattributed_s"] = traced_wall - sum(s for _, s in run["spans"].values())
    values["trace.jobs"] = len(traced)
    return values


def source_identity(root):
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return commit, h.hexdigest()


def write_record(root, args, jobs, traced, metrics, problems):
    commit, src_digest = source_identity(root)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": commit, "source_sha256": src_digest,
        "metrics": metrics, "problems": problems,
        "unbound_layers": sorted({n for j in traced for n in j["result"]["unbound"]}),
        "refused": [{"input": ops.input_text(op), "error": r["error"]}
                    for op, r in flatten(jobs) if r["status"] == "refused"],
        "stopped": [ops.input_text(op) for op, r in flatten(jobs) if r["status"] == "stopped"],
        "jobs": [{"index": j["index"], "traced": j["traced"], "setup_s": j["setup_s"],
                  "wall_s": job_wall(j), "peak_rss_mb": j["result"]["peak_rss_mb"],
                  "ops": [{"input": ops.input_text(op), "latency_s": r["latency_s"],
                           "calib_s": r["calib_s"], "ref_s": r["ref_s"],
                           "status": r["status"], "digest": r["digest"], "error": r["error"]}
                          for op, r in zip(j["job"]["ops"], j["result"]["ops"])]}
                 for j in jobs + traced],
    }
    out = root / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    path = out / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if not (root / "src" / "wpoisson" / "__init__.py").is_file():
        sys.exit("perfbench: run from the root of a wpoisson source checkout")
    gen = inputs.WORKLOADS[args.workload](root, args.seed)
    deadline = time.perf_counter() + HARD_LIMIT_S

    count = gen.count(args.seconds)
    traced = []
    if args.trace == 0:
        jobs = run_jobs(root, gen, count, deadline)
        setups = [j["setup_s"] for j in jobs]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(root, None, deadline)[0])
        values = end_to_end(jobs, setups)
        wanted = spec["end_to_end"]
    else:
        # half the jobs untraced, then the same jobs traced
        jobs = run_jobs(root, gen, (count + 1) // 2, deadline)
        traced = run_jobs(root, gen, len(jobs), deadline, traced=True)
        values = per_layer(jobs, traced)
        wanted = spec["per_layer"]
    problems = correctness(jobs + traced)
    for (op, _), (a, b) in zip(flatten(jobs), matched(jobs, traced)):
        # the traced run has a slightly longer budget; only a stop may differ
        if (a["status"], a["digest"]) != (b["status"], b["digest"]) and \
                "stopped" not in (a["status"], b["status"]):
            problems.append("%s: traced result differs" % ops.input_text(op))

    # a layer that was not called, or whose target no longer exists (the
    # worker warns and the record lists it), reads 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    all_ops = [r for _, r in flatten(jobs + traced)]
    path = write_record(root, args, jobs, traced, metrics, problems)

    print("workload %s  seed %d  jobs %d  ops %d  record %s"
          % (args.workload, args.seed, len(jobs), len(all_ops), path.relative_to(root)))
    for name, m in metrics.items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    for p in problems:
        print("  PROBLEM %s" % p)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(all_ops),
        "failed": sum(1 for r in all_ops if r["status"] in FAILED),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        sys.exit("perfbench: %s" % exc)
