"""The classlab benchmark: one workload, one seed, one line of metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in a process of
its own (`worker.py`), closed loop with one client.  Set-up is measured in
further fresh processes that only set up (`SETUP_PROBES`); their median is
`setup_s`.  Every op's answer is checked against `expected/`.

The speed of a shared host drifts by a third over minutes, so every time in
`metrics` is scaled to a reference speed: each op's time is multiplied by
`REFERENCE_PROBE_S` over the median time of the worker's probe loop around
that op (`op_scales`), a set-up time by the same ratio for the probe its
process ran.  The times as measured are printed and kept in the record
beside them.

Human-readable lines come first: machine facts, seed and commit, each metric
with its unit and sample count, and `error_rate`.  The last line is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`: with
`--trace 0` the end-to-end metrics of BENCHMARK.json, with `--trace 1` its
per-layer metrics.  A fuller record goes to `.perfbench/results/`.
"""
from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = workloads.HERE
ROOT = workloads.ROOT
# Set-up probes run before and after the workload, so that their median
# samples the host at two moments of the run.
SETUP_PROBES = (3, 4)
RUN_LIMIT_S = 170.0
# The probe loop's time at the reference speed: about its median on the
# 2.1 GHz Xeon vCPUs the benchmark was defined on.
REFERENCE_PROBE_S = 0.005
# How far around an op its speed is read from the probes; they come every
# 0.2 s, so a short op is scaled by the few probes nearest to it.
WINDOW_S = 0.5


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": cpu, "commit": commit}


def _worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run worker.py in a session of its own; on timeout, kill the session,
    so that a cli command the worker started dies with it."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def measure_setup(workload: str, probes: int, deadline: float) -> list[list[float]]:
    """[seconds, probe seconds] of each fresh set-up-only process; the
    seconds leave out the probe the process ran after its set-up."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = _worker(["--workload", workload, "--setup-only"],
                       max(deadline - time.monotonic(), 1.0))
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-600:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append([seconds - probe["probe_cost_s"], probe["probe_s"]])
    return times


def _percentiles(latencies: list[float]) -> tuple[float, float]:
    p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[8]
           if len(latencies) > 1 else latencies[0])
    return statistics.median(latencies), p90


def op_scales(p: dict) -> list[float]:
    """For each op of a pass, `REFERENCE_PROBE_S` over the median of the
    probes taken from `WINDOW_S` before it started to `WINDOW_S` after it
    ended, or over the pass's median probe where that window holds none."""
    times, samples = p["probe_t"], p["probe_s"]
    whole = statistics.median(samples)
    scales = []
    for t0, t1 in p["op_t"]:
        window = samples[bisect.bisect_left(times, t0 - WINDOW_S):
                         bisect.bisect_right(times, t1 + WINDOW_S)]
        scales.append(REFERENCE_PROBE_S / statistics.median(window or [whole]))
    return scales


def end_to_end(result: dict, setup_times: list[list[float]]) -> tuple[dict, dict, dict]:
    """Metric values at the reference speed, the same as measured, and their
    sample counts, from the untraced passes."""
    passes = result["passes"]
    op_s = [[s for _, s, _ in p["op_s"]] for p in passes]
    scaled = [[s * k for s, k in zip(ops, op_scales(p))] for ops, p in zip(op_s, passes)]
    values, measured = {}, {}
    for out, ops, setup in (
            (values, scaled, [s * REFERENCE_PROBE_S / probe for s, probe in setup_times]),
            (measured, op_s, [s for s, _ in setup_times])):
        out["wall_s"] = statistics.median(sum(p) for p in ops)
        out["latency_p50_s"], out["latency_p90_s"] = _percentiles([s for p in ops for s in p])
        out["setup_s"] = statistics.median(setup)
        out["peak_rss_mb"] = result["peak_rss_mb"]
    n_ops = sum(len(p) for p in op_s)
    samples = {"wall_s": len(passes), "latency_p50_s": n_ops, "latency_p90_s": n_ops,
               "setup_s": len(setup_times), "peak_rss_mb": 1}
    return values, measured, samples


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected", help="answers file to check against "
                                       "(default: the frozen one in expected/)")
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "classlab" / "__init__.py").is_file():
        return _fail(f"no classlab sources under {ROOT / 'src'}; run from a checkout")
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    facts = machine_facts()
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    try:
        setup_times = measure_setup(args.workload, SETUP_PROBES[0], deadline)
        cmd = ["--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(out_file)]
        if args.expected:
            cmd += ["--expected", str(Path(args.expected).resolve())]
        proc = _worker(cmd, max(deadline - time.monotonic(), 1.0))
        if proc.returncode == 0:
            setup_times += measure_setup(args.workload, SETUP_PROBES[1], deadline)
    except subprocess.TimeoutExpired:
        return _fail(f"workload did not finish within {RUN_LIMIT_S:.0f} s")
    except RuntimeError as exc:
        return _fail(str(exc))
    if proc.returncode != 0:
        return _fail(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-1200:]}")
    with open(out_file, encoding="utf-8") as fh:
        result = json.load(fh)

    if args.trace:
        values, measured, samples = result["layers"], {}, {}
    else:
        values, measured, samples = end_to_end(result, setup_times)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return _fail(f"metrics not produced: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted, failed = result["attempted"], result["failed"]
    record = dict(facts, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, metrics=metrics,
                  samples=samples, measured=measured, setup_probe_s=setup_times,
                  error_rate=failed / attempted, worker=result)
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"machine: nproc={facts['nproc']} python={facts['python']} "
          f"cpu={facts['cpu_model']!r} commit={facts['commit']}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} passes={len(result['passes'])}"
          + (f" traced_passes={len(result['traced_wall_s'])} spans={result['spans']}"
             if args.trace else ""))
    if not args.trace:
        probes = [x for p in result["passes"] for x in p["probe_s"]]
        print(f"host probe: median {statistics.median(probes) * 1e3:.4g} ms over "
              f"{len(probes)} probes, reference {REFERENCE_PROBE_S * 1e3:.4g} ms")
    for name, m in metrics.items():
        n = f" (n={samples[name]})" if name in samples else ""
        raw = (f", measured {measured[name]:.6g}"
               if name in measured and m["unit"] == "s" else "")
        print(f"{name} {m['value']:.6g} {m['unit']}{n}{raw}")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for f in result["failures"][:10]:
        print(f"failed: pass {f['pass']} op {f['op']}: {f['error']}")
    if args.trace and result.get("tracer_missing"):
        print(f"not traced (absent from the program): {', '.join(result['tracer_missing'])}")
    print(f"record: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0 and attempted >= 1,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
