"""One cold worker: set up the package, run one job, check it, report.

Run by ``run.py`` from the root of a source checkout, never by hand:

    python3 perfbench/worker.py [--trace]

The worker imports ``wpoisson`` from ``src/``, loads the catalog, prints
``ready`` and reads one JSON job from stdin.  It times each operation,
then checks every result by an independent route, untimed, and prints one
JSON line with latencies, statuses, result digests and peak memory.
Empty stdin means a set-up-only worker.
"""

import json
import resource
import signal
import sys
import time
from pathlib import Path

import layers
import ops


def setup(root, tracer):
    src = root / "src"
    if not (src / "wpoisson" / "__init__.py").is_file():
        sys.exit("perfbench: no src/wpoisson under %s" % root)
    sys.path.insert(0, str(src))
    import wpoisson
    import wpoisson.cli  # noqa: F401  (the catalog workload replays the CLI)
    if Path(wpoisson.__file__).resolve().parent != (src / "wpoisson").resolve():
        sys.exit("perfbench: imported wpoisson from %s, not from the checkout"
                 % wpoisson.__file__)
    if tracer is not None:
        tracer.install(wpoisson)
        tracer.enabled = True
    load = getattr(getattr(wpoisson, "catalog", None), "entries", None)
    if load is None:
        print("perfbench: catalog.entries not found; set-up skips the catalog load",
              file=sys.stderr)
    else:
        load()
    if tracer is not None:
        tracer.enabled = False
    return wpoisson


def cold_start_guard(wp):
    """every memo the package keeps must be empty before the first timed op"""
    for name in ("complexes", "jacobian"):
        _, _, size = layers.cache_counts(getattr(wp, name))
        if size:
            sys.exit("perfbench: %s caches hold %d entries before the first operation"
                     % (name, size))


class OverBudget(BaseException):
    """raised into an operation that passes its time budget; a BaseException
    so that no handler inside the package swallows it"""


def _over_budget(signum, frame):
    raise OverBudget()


def run_job(wp, job, tracer):
    signal.signal(signal.SIGALRM, _over_budget)
    # traced runs are slower; give them room so the same operations finish
    stretch = 1.25 if tracer is not None else 1.0
    records = []
    calib = ops.calibrate()
    for op in job["ops"]:
        status, error, rec = "ok", None, None
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            if "budget_s" in op:
                # the budget is in reference seconds, like every reported time
                signal.setitimer(signal.ITIMER_REAL,
                                 op["budget_s"] * stretch * calib / ops.CALIB_REF_S)
            if tracer is not None and op["kind"] == "catalog":
                with tracer.span("cli.command"):
                    rec = ops.run(wp, op)
            else:
                rec = ops.run(wp, op)
        except OverBudget:
            status, error = "stopped", "stopped after %g s" % (op["budget_s"] * stretch)
        except wp.RingError as exc:
            status, error = "refused", str(exc)
        except Exception as exc:  # reported as a failed operation, not raised
            status, error = "error", repr(exc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
            del tracer.stack[:]
        after = ops.calibrate()
        # a stopped operation ran for the budget at the speed sampled before
        # it, so it is scaled by that sample and reads the budget
        records.append({"latency_s": latency,
                        "calib_s": calib if status == "stopped" else (calib + after) / 2,
                        "status": status, "error": error, "rec": rec})
        calib = after
    return records


def problems_of(wp, op, rec):
    try:
        return ops.check(wp, op, rec)
    except Exception as exc:  # a check that cannot run is a failed check
        return ["check raised %r" % exc]


def check_job(wp, job, records):
    """untimed: verify every result, then prove the checker is not vacuous
    by feeding it one corrupted record of each kind"""
    selftest = {}
    for op, r in zip(job["ops"], records):
        if r["status"] != "ok":
            r["digest"] = None
            continue
        r["digest"] = ops.digest(r["rec"])
        problems = problems_of(wp, op, r["rec"])
        if problems:
            r["status"], r["error"] = "wrong", "; ".join(problems)
        key = ops.kind_key(op)
        if job.get("selftest") and not problems and key not in selftest:
            selftest[key] = bool(problems_of(wp, op, ops.corrupt(op, r["rec"])))
    return selftest


def main():
    traced = "--trace" in sys.argv[1:]
    tracer = layers.Tracer() if traced else None
    wp = setup(Path.cwd(), tracer)
    setup_layers = tracer.snapshot() if traced else None
    if traced:
        tracer.reset()
    print("ready", flush=True)
    setup_calib = [ops.calibrate() for _ in range(5)]
    line = sys.stdin.readline()
    if not line.strip():
        print(json.dumps({"setup_calib_s": setup_calib}), flush=True)
        return
    job = json.loads(line)
    cold_start_guard(wp)
    records = run_job(wp, job, tracer)
    out = {"ops": records, "setup_calib_s": setup_calib,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if traced:
        out["layers"] = tracer.snapshot()
        out["setup_layers"] = setup_layers
        out["unbound"] = tracer.unbound
        out["caches"] = {name: layers.cache_counts(getattr(wp, name))[:2]
                         for name in ("complexes", "jacobian")}
    out["selftest"] = check_job(wp, job, records)
    for r in records:
        r.pop("rec")
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
