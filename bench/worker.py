"""One benchmark operation in a fresh process.

Usage: python3 bench/worker.py WORKLOAD SEED OP_ID SPAWN_TIME MODE [SPANS_PATH]

SPAWN_TIME is the launcher's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is shared by all processes on Linux), so
``setup_s`` covers interpreter start, ``import drgeom`` (with numpy and
scipy) and building the config.  MODE is ``setup`` (stop there), ``plain``
or ``traced``.  ``wall_s`` runs from the first call into drgeom to a checked
report.  The last stdout line is one JSON object.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv):
    workload_name, seed, op_id, spawned, mode = argv[:5]
    spans_path = argv[5] if len(argv) > 5 else None
    seed, op_id, spawned = int(seed), int(op_id), float(spawned)

    import drgeom
    from drgeom import cli
    if not Path(drgeom.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"drgeom was imported from {drgeom.__file__}, not {ROOT / 'src'}")
    from workloads import WORKLOADS, payload_digest
    work = WORKLOADS[workload_name]
    cfg = work.config(cli, seed)
    setup_s = time.monotonic() - spawned
    result = {"op": op_id, "setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    rec = None
    if mode == "traced":
        import spans
        rec = spans.install(op_id)

    t0 = time.monotonic()
    try:
        status, report = work.call(cli, cfg)
        problems = work.check(status, report)
        result["digest"] = payload_digest(report)
    except Exception:  # a raising call is a failed operation, not a crash
        problems = ["raised: " + traceback.format_exc(limit=4)]
    result["wall_s"] = time.monotonic() - t0
    result["problems"] = problems
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        result["not_traced"] = rec.missing
        result["layers"] = spans.layer_metrics(rec)
        if spans_path:
            spans.dump(rec, spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
