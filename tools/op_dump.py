"""Dump every in-process perfbench operation's output, or compare two dumps.

    python3 tools/op_dump.py --seed N OUT.json
    python3 tools/op_dump.py --compare A.json B.json

Run from the root of a checkout; the program is imported from that
checkout's ./src through ``perfbench/workloads.py``, which this script only
reads.  ``--seed`` empties the program caches, builds the sweep2d, query2d
and highdim workloads from the seed and runs one round of each, writing one
canonical JSON record per operation: its value, mesh error, argmax pair,
witness and the result of its check (a Pi sample is recorded by its size
and a hash of its arrays).  Floats are written with full precision, so two
dumps are byte-identical exactly when the outputs are bitwise the same.

``--compare`` prints, per workload and kind of operation, how many
operations changed at all and how many in value, the largest rise and fall
of their values (B minus A) and the number of failed checks in each dump,
then names every operation whose check outcome differs.  It exits 1 when
the dumps differ at all, in any field of any operation, and 0 when they are
equal.  To compare two commits, dump each from its own checkout with the
same seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

WORKLOADS = ("sweep2d", "query2d", "highdim")


def _floats(a) -> list:
    return np.asarray(a, dtype=float).tolist()


def record(out) -> dict:
    """The comparable parts of one operation's output."""
    if isinstance(out, list) and out and isinstance(out[0], tuple):  # a Pi sample
        arr = np.ascontiguousarray(np.array(out, dtype=float))
        return {"value": len(out), "sha256": hashlib.sha256(arr.tobytes()).hexdigest()}
    if isinstance(out, list):  # a convexity profile
        return {"value": [r.delta_x for r in out], "mesh_error": [r.mesh_error for r in out]}
    if hasattr(out, "alpha"):  # an AlphaReport
        return {"value": out.alpha, "mesh_error": out.mesh_error,
                "pair": [_floats(v) for v in out.maximizer]}
    w = getattr(out, "witness", out)  # of a ModulusEstimate or a CorrectorResult, or a PiWitness
    rec = {"value": getattr(out, "value", w.distance), "witness": [_floats(w.y), _floats(w.g)]}
    if hasattr(out, "pair"):  # a ModulusEstimate
        rec["mesh_error"] = out.mesh_error
        rec["pair"] = [_floats(out.pair.x), _floats(out.pair.f)]
    if hasattr(out, "slack_x"):  # a CorrectorResult
        rec["slack"] = [out.slack_x, out.slack_f]
    return rec


def dump(seed: int) -> dict:
    import workloads as wl

    result = {}
    for name in WORKLOADS:
        wl.clear_program_caches()
        work = wl.WORKLOADS[name]()
        work.setup(seed)
        work.before_round()
        ops = []
        for op in work.ops():
            out = op.run(None)
            ops.append({"label": op.label, "check": op.check(out), **record(out)})
        result[name] = ops
    return result


def _kind(label: str) -> str:
    return label.split()[1]


def _values(rec) -> list[float]:
    v = rec.get("value")
    return [float(u) for u in v] if isinstance(v, list) else [float(v)]


def compare(a: dict, b: dict) -> list[str]:
    lines = []
    for name in WORKLOADS:
        ops_a, ops_b = a.get(name, []), b.get(name, [])
        if [o["label"] for o in ops_a] != [o["label"] for o in ops_b]:
            lines.append(f"{name}: the operation lists differ")
            continue
        # per kind: ops, changed, changed in value, largest rise, largest fall,
        # failed checks in A and in B
        stats = defaultdict(lambda: [0, 0, 0, 0.0, 0.0, 0, 0])
        for oa, ob in zip(ops_a, ops_b):
            s = stats[_kind(oa["label"])]
            s[0] += 1
            s[5] += oa["check"] is not None
            s[6] += ob["check"] is not None
            if oa != ob:
                s[1] += 1
                s[2] += oa["value"] != ob["value"]
                diff = [vb - va for va, vb in zip(_values(oa), _values(ob))]
                s[3] = max(s[3], *diff)
                s[4] = max(s[4], *(-d for d in diff))
            if oa["check"] != ob["check"]:
                lines.append(f"{name} {oa['label']}: check {oa['check']!r} -> {ob['check']!r}")
        for kind, (n, changed, moved, rise, fall, fail_a, fail_b) in stats.items():
            lines.append(f"{name} {kind}: {changed} of {n} changed, {moved} in value; "
                         f"largest rise {rise:.3g}, largest fall {fall:.3g}; "
                         f"failed checks {fail_a} -> {fail_b}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--seed", type=int, metavar="N")
    g.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("out", nargs="?", help="the dump to write (with --seed)")
    args = p.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(f).read_text()) for f in args.compare)
        print("\n".join(compare(a, b)))
        return int(a != b)
    if args.out is None:
        p.error("--seed needs the path of the dump to write")
    Path(args.out).write_text(json.dumps(dump(args.seed), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
