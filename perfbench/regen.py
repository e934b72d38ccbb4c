"""Record the expected answer of every op from the program as it stands.

    python3 perfbench/regen.py

Writes `inputs/universe.json` (the default catalog, whose generators the cli
workload's catalog file is written from) and `expected/<workload>.json`.
Run it only at a commit whose answers are known to be right; the files it
wrote at the seed commit are the oracle every later commit is checked by.
"""
from __future__ import annotations

import json
import shutil
import sys

import workloads


def _write(path, items) -> None:
    """A JSON list or object with one item per line, so diffs stay readable."""
    if isinstance(items, dict):
        lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                 for k, v in sorted(items.items())]
        text = "{\n" + ",\n".join(lines) + "\n}\n"
    else:
        text = "[\n" + ",\n".join(json.dumps(v, sort_keys=True) for v in items) + "\n]\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def main() -> int:
    sys.path.insert(0, str(workloads.SRC))
    from classlab.universe import build_universe

    catalog = build_universe()
    _write(workloads.INPUTS / "universe.json",
           [{"name": e.name, "degree": e.group.degree, "order": e.group.order(),
             "gens": e.group.gen_strings()} for e in catalog.entries])

    workdir = workloads.ROOT / ".perfbench" / "regen"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.get(name)
            wl.setup(workdir)
            ctx = wl.new_pass()
            answers = {}
            for op in wl.ops(0):
                answers[op] = json.loads(json.dumps(wl.answer(op, wl.run(op, ctx))))
            _write(workloads.EXPECTED / f"{name}.json", answers)
            print(f"{name}: {len(answers)} answers", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
