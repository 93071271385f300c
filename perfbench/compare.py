"""Per-metric deltas between two benchmark results.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are records that run.py writes to perfbench/out/, or files
whose last line is the JSON result line run.py prints.  For each metric in
either file this prints its unit, both values, the delta and the delta as a
share of OLD; for records it first lists the environment entries (machine,
library versions, git SHA) that differ.  A single run is noisy on a shared
machine: compare medians over several seeds before calling a delta real.
"""

import json
import sys
from pathlib import Path


def load(path):
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = json.loads(text.strip().splitlines()[-1])
    if "result" in data:
        return data["result"]["metrics"], data.get("environment", {})
    return data["metrics"], {}


def delta_rows(old, new):
    rows = []
    for name in list(old) + [n for n in new if n not in old]:
        a, b = old.get(name), new.get(name)
        unit = (a or b)["unit"]
        va = a["value"] if a else None
        vb = b["value"] if b else None
        d = vb - va if a and b else None
        share = d / va if d is not None and va else None
        rows.append((name, unit, va, vb, d, share))
    return rows


def _fmt(v, spec="12.6g"):
    return f"{v:{spec}}" if v is not None else f"{'-':>12s}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (old, env_old), (new, env_new) = load(argv[0]), load(argv[1])
    for key in sorted(set(env_old) & set(env_new)):
        if env_old[key] != env_new[key]:
            print(f"environment {key}: {env_old[key]!r} -> {env_new[key]!r}")
    print(f"{'metric':40s} {'unit':6s} {'old':>12s} {'new':>12s} {'delta':>12s} {'delta%':>8s}")
    for name, unit, va, vb, d, share in delta_rows(old, new):
        pct = f"{100 * share:+7.1f}%" if share is not None else f"{'-':>8s}"
        print(f"{name:40s} {unit:6s} {_fmt(va)} {_fmt(vb)} {_fmt(d, '+12.4g')} {pct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
