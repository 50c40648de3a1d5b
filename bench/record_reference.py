"""Record ``reference.json``: output fingerprints of every workload per seed.

Run from the repository root, at a commit whose outputs are trusted::

    python3 bench/record_reference.py FIRST_SEED LAST_SEED

Each workload runs one pass per seed. Recording stops, and writes nothing,
at the first pass whose outputs fail a check. Later runs of ``run.py`` compare their outputs with these
fingerprints within ``checks.REFERENCE_TOL``.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main(argv: list) -> int:
    first, last = int(argv[0]), int(argv[1])
    recorded = {name: {} for name in workloads.PLANS}
    run.OUT.mkdir(exist_ok=True)
    run.REFERENCE.unlink(missing_ok=True)  # outputs are recorded, not compared
    for seed in range(first, last + 1):
        for name in workloads.PLANS:
            work = run.Workload(name, seed, trace=False)
            try:
                work.prepare()
                verdict = work.check([work.run_pass()["commands"]])
            finally:
                work.close()
            if verdict["failed"]:
                print(f"{name} seed {seed}: not recorded, {verdict['problems']}", file=sys.stderr)
                return 1
            recorded[name][str(seed)] = checks.round_fingerprint(verdict["fingerprints"])
            print(f"{name} seed {seed}: recorded", flush=True)
    run.REFERENCE.write_text(json.dumps({"tolerances": checks.REFERENCE_TOL, "workloads": recorded},
                                        separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
