"""Run one workload in a process of its own and write what it measured.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --out FILE [--expected FILE]
    python3 perfbench/worker.py --workload NAME --setup-only

Passes run back to back: the workload's `min_passes`, then more until the
next one would end after `--seconds`.  Only program calls are timed:
checking an answer, and the garbage collection between passes, happen
outside the timed region.
With `--trace 1` one untraced pass runs first, as the reference for the
tracing overhead, and the passes after it run under the tracer.

During an untraced pass, an interval timer interrupts the worker every
0.2 s, and the signal handler times one run of the host-speed probe loop
(`probe.py`); the handler's time is taken out of the op it interrupted.  Where the ops run in child processes (`ops_in_child`),
each child times the loop itself instead, and its cost is taken out the same
way.  A set-up-only run probes once set-up is done and prints the probe's
time and its own cost.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from probe import HostProbe, probe_loop

OUT_DIR = workloads.ROOT / ".perfbench"


def _answer_error(wl, op: str, result, expected: dict) -> str | None:
    try:
        got = json.loads(json.dumps(wl.answer(op, result)))
    except Exception as exc:  # a broken result is a failed op, not a crash
        return f"answer: {type(exc).__name__}: {exc}"
    if op not in expected:
        return "no expected answer"
    if got != expected[op]:
        return f"answer differs from expected: {json.dumps(got)[:300]}"
    return None


def run_pass(wl, ops: list[str], expected: dict, pass_no: int, probe: HostProbe,
             tracer=None) -> dict:
    """One pass over the op list; per-op seconds, failures and cli layers."""
    ctx = wl.new_pass()
    ctx["probe"] = probe
    op_s, failures, layers, op_t = [], [], {}, []
    probe.start(timer=tracer is None and not wl.ops_in_child)
    for op in ops:
        if tracer is not None:
            tracer.op = f"{pass_no}:{op}"
            tracer.enabled = True
        trace = None
        probe_cost = probe.cost_s
        t0 = time.perf_counter()
        try:
            result = wl.run(op, ctx)
            error = None
        except Exception as exc:  # the op failed; record it and go on
            result, error = None, f"{type(exc).__name__}: {exc}"
            trace = traceback.format_exc(limit=-4)
        t1 = time.perf_counter()
        seconds = t1 - t0
        seconds -= probe.cost_s - probe_cost
        op_t.append([t0, t1])
        if tracer is not None:
            tracer.enabled = False
        if error is None:
            error = _answer_error(wl, op, result, expected)
            if hasattr(wl, "layer_metrics"):
                for name, value in wl.layer_metrics(op, result, seconds).items():
                    layers[name] = layers.get(name, 0) + value
        op_s.append([op, seconds, error is None])
        if error is not None:
            failures.append({"pass": pass_no, "op": op, "error": error[:400],
                             "traceback": trace})
    probe.stop()
    return {"wall_s": sum(s for _, s, _ in op_s), "op_s": op_s,
            "probe_s": probe.samples, "probe_t": probe.times, "op_t": op_t,
            "failures": failures, "layers": layers}


def layer_names() -> list[str]:
    """Every per-layer metric the traced run can report, so that layers a
    workload does not reach are reported as 0."""
    import tracer
    from classlab.suite import check_names

    names = []
    for layer, _, qualname, kind in tracer.TARGETS:
        base = f"{layer}.{qualname.rsplit('.', 1)[-1]}"
        if base == "classes.audit_property":
            for which in ("C0", "C1", "C2", "C3"):
                names += [f"{base}.{which}.calls", f"{base}.{which}.self_s"]
            continue
        names.append(f"{base}.calls")
        if kind != "count":
            names.append(f"{base}.self_s")
        if kind == "gen":
            names.append(f"{base}.elements")
    names += ["structure.subgroups.found", "structure.isomorphic.cert_ratio",
              "realization.brute_normalizer.elements_scanned"]
    subcommands, checks = [], []
    for cmd in workloads.CLI_COMMANDS:
        if cmd[0] not in subcommands:
            subcommands.append(cmd[0])
        if cmd[0] == "selftest":
            pattern = cmd[cmd.index("--filter") + 1]
            checks += [c for c in check_names() if pattern in c and c not in checks]
    for sub in subcommands:
        names += [f"cli.{sub}.process_s", f"cli.{sub}.inproc_s"]
    names += ["cli.overhead_s", "suite.checks_run"]
    names += [f"suite.check.{c}_s" for c in checks]
    names.append("trace.overhead_s")
    return names


def traced_layers(snapshot: dict) -> dict:
    out = {}
    for name, agg in snapshot.items():
        for field, value in agg.items():
            if field != "certs":
                out[f"{name}.{field}"] = value
    iso = snapshot.get("structure.isomorphic")
    if iso is not None:
        out["structure.isomorphic.cert_ratio"] = (
            iso.get("certs", 0) / iso["calls"] if iso["calls"] else 0.0)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--expected", help="answers file (default: the frozen one)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(workloads.SRC))
    workdir = OUT_DIR / "tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import classlab  # noqa: F401  (the import is part of set-up)

        wl = workloads.get(args.workload)
        wl.setup(workdir)
        if args.setup_only:
            t0 = time.perf_counter()
            probe = statistics.median(probe_loop() for _ in range(3))
            print(json.dumps({"probe_s": probe, "probe_cost_s": time.perf_counter() - t0}))
            return 0

        expected_path = Path(args.expected or workloads.EXPECTED / f"{args.workload}.json")
        with open(expected_path, encoding="utf-8") as fh:
            expected = json.load(fh)
        ops = wl.ops(args.seed)
        names = layer_names() if args.trace else []

        passes, traced, failures = [], [], []
        tr = None
        probe = HostProbe()
        peak_rss_mb = None
        begin = time.perf_counter()
        while True:
            if args.trace and passes and tr is None:
                import tracer

                tr = tracer.Tracer()
                tr.enabled = False
                tr.install()
            if tr is not None:
                tr.reset_aggregates()
            p = run_pass(wl, ops, expected, len(passes) + len(traced), probe, tr)
            failures += p.pop("failures")
            if tr is None:
                passes.append(p)
            else:
                layers = dict.fromkeys(names, 0)
                layers.update(p["layers"])
                layers.update(traced_layers(tr.snapshot()))
                traced.append({"wall_s": p["wall_s"], "layers": layers})
            if peak_rss_mb is None:
                peak_rss_mb = _peak_rss_mb(args.workload == "cli")
            gc.collect()
            done = len(passes) + len(traced)
            predicted_end = (time.perf_counter() - begin) * (done + 1) / done
            if ((traced or not args.trace) and done >= wl.min_passes
                    and predicted_end > args.seconds):
                break

        result = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "attempted": len(ops) * (len(passes) + len(traced)),
            "failed": len(failures), "failures": failures,
            "passes": passes,
            "peak_rss_mb": peak_rss_mb,
        }
        if tr is not None:
            # Times: median over traced passes.  Counts repeat exactly from
            # pass to pass; they are taken from the first.
            layers = {name: statistics.median(t["layers"][name] for t in traced)
                      if name.endswith("_s") else value
                      for name, value in traced[0]["layers"].items()}
            layers["cli.overhead_s"] = sum(
                v for k, v in layers.items() if k.startswith("cli.") and k.endswith(".process_s")
            ) - sum(v for k, v in layers.items()
                    if k.startswith("cli.") and k.endswith(".inproc_s"))
            layers["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                          - passes[0]["wall_s"])
            spans_dir = OUT_DIR / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            spans_file = spans_dir / f"{args.workload}-seed{args.seed}.jsonl"
            result.update(layers=layers, traced_wall_s=[t["wall_s"] for t in traced],
                          spans=tr.write_spans(str(spans_file)),
                          spans_file=str(spans_file.relative_to(workloads.ROOT)),
                          tracer_missing=tr.missing)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _peak_rss_mb(children: bool) -> float:
    """Peak RSS so far, taken after the first pass: later passes repeat the
    same work, and their extra growth is an artefact of repetition."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main())
