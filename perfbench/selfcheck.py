"""The benchmark's own test.

    python3 perfbench/selfcheck.py

For each workload, runs the traced benchmark twice on the same seed with the
shortest run length, and checks that
  - every op's answer matches the frozen one (`failed` is 0);
  - every work counter (`*.calls`, `*.found`, `*.elements*`, `*.cert_ratio`,
    `suite.checks_run`) repeats exactly;
  - `structure.subgroups.calls` is 0 on class-queries, which never
    enumerates subgroups.
Then it runs class-queries once against a copy of its answers with one answer
corrupted, as a negative control: `failed` must be above 0.
Exits 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import json
import subprocess
import sys

import workloads

SEED = 7
COUNTER_SUFFIXES = (".calls", ".found", ".elements", ".elements_scanned",
                    ".cert_ratio", ".checks_run")


def bench(workload: str, trace: int, expected: str | None = None) -> dict:
    cmd = [sys.executable, str(workloads.HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    if expected:
        cmd += ["--expected", expected]
    proc = subprocess.run(cmd, cwd=workloads.ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark failed on {workload}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []

    for name in workloads.WORKLOADS:
        first, second = (bench(name, 1) for _ in range(2))
        for run in (first, second):
            if run["failed"] or not run["correct"]:
                problems.append(f"{name}: {run['failed']} failed ops at the frozen answers")
        counters = [m for m in first["metrics"] if m.endswith(COUNTER_SUFFIXES)]
        differ = [m for m in counters
                  if first["metrics"][m]["value"] != second["metrics"][m]["value"]]
        if differ:
            problems.append(f"{name}: counters differ between runs: {', '.join(differ)}")
        if name == "class-queries":
            calls = first["metrics"]["structure.subgroups.calls"]["value"]
            if calls != 0:
                problems.append(f"class-queries: structure.subgroups.calls is {calls}")
        print(f"{name}: {len(counters)} counters compared, "
              f"{len(differ)} differ, failed={first['failed']}/{second['failed']}",
              flush=True)

    with open(workloads.EXPECTED / "class-queries.json", encoding="utf-8") as fh:
        answers = json.load(fh)
    op = sorted(answers)[0]
    answers[op] = dict(answers[op], member=not answers[op]["member"])
    corrupt = workloads.ROOT / ".perfbench" / "selfcheck-corrupt.json"
    corrupt.parent.mkdir(parents=True, exist_ok=True)
    corrupt.write_text(json.dumps(answers), encoding="utf-8")
    run = bench("class-queries", 0, str(corrupt))
    print(f"negative control: corrupted {op!r}: failed={run['failed']} of "
          f"{run['attempted']}, correct={run['correct']}")
    if run["failed"] == 0 or run["correct"]:
        problems.append("negative control: a corrupted answer went unnoticed")

    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
