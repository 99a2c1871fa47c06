"""One repetition of a benchmark workload, in a fresh process.

``run.py`` starts this script once per repetition so that every
repetition pays the program's real set-up: importing ``repro`` and
building the simulation.  It runs the workload's job once, checks every
run the job produced, and prints one JSON record as its last stdout line.
Times that ``run.py`` compares across processes are ``time.monotonic``
stamps (one system-wide clock); job durations use ``time.perf_counter``.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 simbench/rep.py --workload apache-detailed --seed 1 --tmp DIR [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import sys
import time
import traceback

import checks
import tracing
import workloads


def _import_program():
    """Import every program module the job and the tracer touch."""
    from repro.analysis import experiments, runner
    from repro.analysis.artifact import RunArtifact
    from repro.analysis.store import RunStore

    return experiments, runner, RunArtifact, RunStore


def _count(patches: tracing.Patches, counts: dict, name: str, owner,
           attr: str, when=lambda result: True) -> None:
    """Count the calls of ``owner.attr`` whose result satisfies *when*."""
    counts[name] = 0

    def bump(result):
        if when(result):
            counts[name] += 1

    patches.wrap(owner, attr, after=bump)


def _time_first_build(experiments, patches: tracing.Patches,
                      tmp: pathlib.Path) -> None:
    """Stamp the first ``build_simulation`` of every process that builds:
    this one, or the pool workers forked from it.  Each such process
    writes ``[start, end]`` to ``build-<pid>.json``; the earliest end is
    the repetition's first simulated cycle."""
    state: dict = {}

    def before():
        if state.get("pid") != os.getpid():
            state.update(pid=os.getpid(), start=time.monotonic(), done=False)

    def after(_sim):
        if not state["done"]:
            state["done"] = True
            (tmp / f"build-{os.getpid()}.json").write_text(
                json.dumps([state["start"], time.monotonic()]))

    patches.wrap(experiments, "build_simulation", before=before, after=after)


def _store_listing(root: pathlib.Path) -> list:
    return sorted((p.name, p.stat().st_size, p.stat().st_mtime_ns)
                  for p in root.rglob("*") if p.is_file())


def _spec(experiments, item: dict) -> dict:
    extra = {k: item[k] for k in ("mode", "warmup") if k in item}
    if "sample" in item:
        extra["sample"] = tuple(item["sample"])
    return experiments.run_spec(item["workload"], item["cpu"], item["os_mode"],
                                item["instructions"], item["seed"], **extra)


def _ratios(artifacts: list) -> dict:
    """Deterministic per-layer ratios from the job's total windows."""
    s = {k: 0 for k in ("retired", "cycles", "fetched", "zero_fetch",
                        "fast_cycles", "fast_instr", "fast_mat")}
    for a in artifacts:
        t = a.total
        p = t["probes"]
        s["retired"] += t["retired"]
        s["cycles"] += t["cycles"]
        s["fetched"] += t["fetched"]
        s["zero_fetch"] += t["zero_fetch_cycles"]
        s["fast_cycles"] += p["core.mode.fast_cycles"]
        s["fast_instr"] += p["core.mode.fast_instructions"]
        s["fast_mat"] += p["core.mode.fast_materialized"]
    detailed_cycles = s["cycles"] - s["fast_cycles"]
    return {
        "core.processor.zero_fetch_share":
            s["zero_fetch"] / detailed_cycles if detailed_cycles else 0.0,
        "core.processor.useful_fetch_ratio":
            (s["retired"] - s["fast_instr"]) / s["fetched"] if s["fetched"] else 0.0,
        "core.engine.fast_share":
            s["fast_instr"] / s["retired"] if s["retired"] else 0.0,
        "core.engine.materialized_ratio":
            s["fast_mat"] / s["fast_instr"] if s["fast_instr"] else 0.0,
    }


def run_job(args, tmp: pathlib.Path, out: dict) -> None:
    """Run the workload's job once and fill *out* (see module docstring)."""
    experiments, runner, RunArtifact, RunStore = _import_program()
    out["t_import"] = time.monotonic()
    out["ops"] = workloads.operations(args.workload)
    items = workloads.items(args.workload, args.seed, args.scale)
    clock = time.perf_counter
    # Every wrapper below -- set-up stamps, warm-pass counts, the tracer's
    # -- goes through one Patches, restored (last first) once the job ends.
    patches = tracing.Patches()
    tracer = tracing.Tracer(tmp, patches) if args.trace else None
    sweep = args.workload == "seed-sweep"
    errors: dict[str, list[str]] = {}

    if sweep:
        if not args.trace:
            _time_first_build(experiments, patches, tmp)
        store = RunStore(tmp / "store")
        workers = min(2, os.cpu_count() or 1)
        if tracer is not None:
            tracer.install()
        start = clock()
        cold = runner.run_many(items, max_workers=workers, store=store)
        cold_s = clock() - start
        # The warm pass must be served by the store, not the in-process
        # memo the cold pass filled.
        experiments.clear_cache()
        listing = _store_listing(store.root)
        counts: dict[str, int] = {}
        _count(patches, counts, "executed", experiments, "execute_spec")
        _count(patches, counts, "writes", RunStore, "put")
        _count(patches, counts, "gets", RunStore, "get")
        _count(patches, counts, "hits", RunStore, "get",
               when=lambda r: r is not None)
        start = clock()
        warm = runner.run_many(items, max_workers=workers, store=store)
        warm_s = clock() - start
        patches.restore()
        out["cold_s"] = cold_s
        out["job_s"] = cold_s + warm_s
        artifacts = dict(cold)
        if args.inject == "counter":
            next(iter(artifacts.values())).total["caches"]["L1D"]["misses"][0] += 1
        for item, (label, art) in zip(items, artifacts.items()):
            errors[label] = (checks.run_errors(art, item)
                             + checks.roundtrip_errors(art, RunArtifact))
        rewritten = (counts["executed"] or counts["writes"]
                     or _store_listing(store.root) != listing)
        for label, art in artifacts.items():
            warm_errors = []
            if rewritten:
                warm_errors.append(
                    f"warm pass executed {counts['executed']} runs and "
                    f"wrote {counts['writes']} artifacts")
            if warm.get(label) != art:
                warm_errors.append("store get differs from the stored run")
            errors[f"warm:{label}"] = warm_errors
        out["ratios"] = _ratios(list(artifacts.values()))
        out["ratios"]["analysis.store.warm_hit_ratio"] = (
            counts["hits"] / counts["gets"] if counts["gets"] else 0.0)
        executed_runs = len(items)
    else:
        (item,) = items
        spec = _spec(experiments, item)
        if not args.trace:
            _time_first_build(experiments, patches, tmp)
        if tracer is not None:
            tracer.install()
        start = clock()
        art = experiments.execute_spec(spec)
        out["job_s"] = clock() - start
        patches.restore()
        out["cold_s"] = out["job_s"]
        workers = 0
        if args.inject == "counter":
            art.total["caches"]["L1D"]["misses"][0] += 1
        label = art.label
        errors[label] = (checks.run_errors(art, item)
                         + checks.roundtrip_errors(art, RunArtifact))
        store = RunStore(tmp / "store")
        store.put(art)
        if store.get(art.fingerprint) != art:
            errors[label].append("store put then get returned a different run")
        artifacts = {label: art}
        out["ratios"] = _ratios([art])
        out["ratios"]["analysis.store.warm_hit_ratio"] = 0.0
        executed_runs = 1

    builds = [json.loads(p.read_text()) for p in tmp.glob("build-*.json")]
    if builds:
        out["t_build_start"], out["t_build_end"] = min(builds, key=lambda b: b[1])
    elif not args.trace:
        # Pool workers started without fork do not inherit the hook.
        raise RuntimeError("no build_simulation was stamped: set-up unmeasured")
    out["retired"] = sum(a.total["retired"] for a in artifacts.values())
    out["digest"] = checks.job_digest(artifacts)
    if tracer is not None:
        out["trace"] = _trace_record(tracer, out, executed_runs, workers, errors)
    out["ops"] = len(errors)
    out["failed"] = sum(1 for e in errors.values() if e)
    out["errors"] = {k: v for k, v in errors.items() if v}


def _trace_record(tracer, out: dict, executed_runs: int, workers: int,
                  errors: dict) -> dict:
    totals = tracer.totals()
    execute = tracing.ENTRY_POINTS.index("repro.analysis.experiments:execute_spec")
    if totals["calls"][execute] != executed_runs:
        # Worker records went missing: the layer figures would be wrong.
        for errs in errors.values():
            errs.append(f"trace saw {totals['calls'][execute]} executions "
                        f"of {executed_runs}")
    traced_time = out["job_s"] + totals["worker_top"]
    kinstr = out["retired"] / 1000
    rec = {"job_s": out["job_s"], "calls_per_kinstr": {}, "self_share": {}}
    for layer in tracing.LAYERS:
        rec["calls_per_kinstr"][layer] = (
            tracing.layer_sums(totals["calls"], layer) / kinstr)
        rec["self_share"][layer] = (
            tracing.layer_sums(totals["self"], layer) / traced_time)
    busy = (totals["worker_incl"][execute] if totals["workers"]
            else totals["incl"][execute])
    rec["worker_busy_share"] = busy / (workers * out["cold_s"]) if workers else 0.0
    return rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True, type=pathlib.Path,
                        help="empty scratch directory for stores and traces")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="budget multiplier (self-tests only)")
    parser.add_argument("--inject", choices=("counter",),
                        help="tamper with one run's counters (self-tests only)")
    args = parser.parse_args(argv)
    out: dict = {}
    try:
        run_job(args, args.tmp, out)
    except Exception:  # reported as failed operations, not a crash
        out["errors"] = {"job": [traceback.format_exc()]}
        out["failed"] = out["ops"] = (out.get("ops")
                                      or workloads.operations(args.workload))
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["rss_mb"] = rss_kb / 1024
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
