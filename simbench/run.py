"""Repository benchmark driver: one workload, one seed, one JSON result.

Run from the repository root::

    python3 simbench/run.py --workload specint-sampled --seed 1 --seconds 30 --trace 0

It repeats the workload's job in fresh processes (``rep.py``) until
``--seconds`` have passed, checks every run, and prints the simulated
digest followed by one JSON object as the last stdout line.  With
``--trace 0`` the metrics are the end-to-end ones (medians over the
repetitions); with ``--trace 1`` untraced and traced repetitions
alternate and the metrics are the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads

HERE = pathlib.Path(__file__).resolve().parent

#: Fewest repetitions of each kind a run makes, however short --seconds is.
MIN_REPS = 2

#: Wall-clock cap on a whole run, which must end within 180 s: no
#: repetition may outlive it.
RUN_LIMIT_S = 170

def _run_rep(args, root: pathlib.Path, tmp_base: pathlib.Path, env: dict,
             trace: bool, timeout: float, cpu: int | None) -> dict:
    """Start one repetition, pinned to *cpu* unless that is None, and
    return its record, with ``spawn`` (the monotonic time it was started)
    added.  A repetition that crashes or prints no record counts all of
    its operations as failed."""
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="rep-", dir=tmp_base))
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--tmp", str(tmp),
           "--scale", repr(args.scale)]
    if trace:
        cmd.append("--trace")
    if args.inject:
        cmd += ["--inject", args.inject]
    env = dict(env, REPRO_CACHE_DIR=str(tmp / "cache"))
    spawn = time.monotonic()
    try:
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout, preexec_fn=pin)
        problem = proc.stderr[-2000:]
        lines = proc.stdout.strip().splitlines()
        rec = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except subprocess.TimeoutExpired:
        rec, problem = None, f"repetition exceeded {timeout:.0f} s"
    except ValueError:  # the last stdout line was not a record
        rec = None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if rec is None:
        ops = workloads.operations(args.workload)
        rec = {"ops": ops, "failed": ops, "errors": {"process": [problem]}}
    rec["spawn"] = spawn
    rec["traced"] = trace
    if "retired" in rec:
        setup = (f" setup {rec['t_build_end'] - spawn:.3f} s"
                 if "t_build_end" in rec else "")
        print(f"rep{' traced' if trace else ''}: job {rec['job_s']:.3f} s "
              f"ips {rec['retired'] / rec['cold_s']:.0f}{setup} "
              f"rss {rec['rss_mb']:.1f} MB", file=sys.stderr)
    return rec


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(reps: list[dict], ok: int, attempted: int) -> dict:
    good = [r for r in reps if "retired" in r]
    return {
        "ips": _metric(_median([r["retired"] / r["cold_s"] for r in good]), "1/s"),
        "setup_s": _metric(_median([r["t_build_end"] - r["spawn"]
                                    for r in good if "t_build_end" in r]), "s"),
        "peak_rss_mb": _metric(_median([r["rss_mb"] for r in reps if "rss_mb" in r]), "MB"),
        "ok_ratio": _metric(ok / attempted, "ratio"),
    }


def per_layer(reps: list[dict]) -> dict:
    plain = [r for r in reps if not r["traced"] and "job_s" in r]
    traced = [r for r in reps if r["traced"] and "trace" in r]
    out = {}
    for layer in tracing.LAYERS:
        calls = traced[0]["trace"]["calls_per_kinstr"][layer] if traced else 0.0
        out[f"{layer}.calls_per_kinstr"] = _metric(calls, "1/kinstr")
        out[f"{layer}.self_share"] = _metric(
            _median([r["trace"]["self_share"][layer] for r in traced]), "ratio")
    ratios = (traced or plain or [{"ratios": {}}])[0].get("ratios", {})
    for name in ("core.processor.zero_fetch_share",
                 "core.processor.useful_fetch_ratio",
                 "core.engine.fast_share", "core.engine.materialized_ratio",
                 "analysis.store.warm_hit_ratio"):
        out[name] = _metric(ratios.get(name, 0.0), "ratio")
    out["analysis.runner.worker_busy_share"] = _metric(
        _median([r["trace"]["worker_busy_share"] for r in traced]), "ratio")
    stamped = [r for r in plain if "t_build_end" in r]
    out["setup.import_s"] = _metric(
        _median([r["t_import"] - r["spawn"] for r in stamped]), "s")
    out["setup.build_s"] = _metric(
        _median([r["t_build_end"] - r["t_build_start"] for r in stamped]), "s")
    out["trace.overhead"] = _metric(
        _median([r["trace"]["job_s"] for r in traced])
        / (_median([r["job_s"] for r in plain]) or 1.0), "ratio")
    return out


def _consistency_failures(reps: list[dict]) -> None:
    """Fail every operation of a repetition whose simulated digest
    differs from the first repetition's (whether traced or not), or
    whose traced call counts differ from the first traced one's."""
    digests = [r["digest"] for r in reps if "digest" in r]
    calls = [r["trace"]["calls_per_kinstr"] for r in reps if "trace" in r]
    for r in reps:
        bad = []
        if "digest" in r and r["digest"] != digests[0]:
            bad.append(f"digest {r['digest']} != {digests[0]}")
        if "trace" in r and r["trace"]["calls_per_kinstr"] != calls[0]:
            bad.append("traced call counts differ between repetitions")
        if bad:
            r["failed"] = r["ops"]
            r.setdefault("errors", {})["consistency"] = bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="budget multiplier (self-tests only)")
    parser.add_argument("--inject", choices=("counter",),
                        help="tamper with one run's counters (self-tests only)")
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("simbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    # workloads.items reads the program's canonical specs.
    sys.path.insert(0, str(root / "src"))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("REPRO_FAULT_PLAN", None)
    deadline = time.monotonic() + RUN_LIMIT_S
    # Compile the program's bytecode before anything is timed, as its
    # first import would (even where PYTHONDONTWRITEBYTECODE is set), so
    # no repetition pays for compilation.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(root / "src" / "repro"), str(HERE)],
                   cwd=root, env=env, check=True, timeout=RUN_LIMIT_S)

    reps: list[dict] = []
    tmp_base = pathlib.Path(tempfile.mkdtemp(prefix=".simbench-", dir=root))
    try:
        start = time.monotonic()
        kinds = (False, True) if args.trace else (False,)
        # Other tenants load the host's cores unevenly, for minutes at a
        # time.  A single-process job is pinned to each allowed CPU in turn
        # so every run samples all of them alike; seed-sweep's pool needs
        # them all at once.
        cpus = (sorted(os.sched_getaffinity(0))
                if args.workload != "seed-sweep" else [None])
        done = 0
        while True:
            for trace in kinds:
                reps.append(_run_rep(args, root, tmp_base, env, trace,
                                     timeout=deadline - time.monotonic(),
                                     cpu=cpus[done % len(cpus)]))
            done += 1
            now = time.monotonic()
            if ((done >= MIN_REPS and now - start >= args.seconds)
                    or now > deadline - len(kinds)):
                break
    finally:
        shutil.rmtree(tmp_base, ignore_errors=True)

    _consistency_failures(reps)
    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        for label, errs in r.get("errors", {}).items():
            print(f"FAILED {label}: {errs[0].strip()}", file=sys.stderr)
    digest = next((r["digest"] for r in reps if "digest" in r), "none")
    print(f"digest {args.workload} seed={args.seed}: {digest}")
    metrics = (per_layer(reps) if args.trace
               else end_to_end(reps, attempted - failed, attempted))
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
