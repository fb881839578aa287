#!/usr/bin/env python3
"""Write bench/pinned.json: digests of the exact outputs the checks compare to.

    python3 bench/pin.py

Pin once, from a commit whose outputs are trusted.  The closure-cap words,
the markov-skein block and the verify-identities outputs do not
depend on the run's seed, so a changed digest means changed values:
investigate it, never re-pin it away.
"""

import json
import random
import sys

from run import BENCH, load_package, run_ops

load_package()
import workloads  # noqa: E402
from vertexlink import invariants, models, ring  # noqa: E402
from vertexlink.braid import BraidWord  # noqa: E402


def main() -> int:
    closure = []
    for N, letters in workloads.ClosureCap.corpus():
        value = invariants.ambient_invariant(BraidWord(workloads.CAP[N], letters),
                                             models.build_model(N))
        closure.append(workloads.digest([ring.render(value)]))
    markov = workloads.MarkovSkein(0, {"markov-skein": None})
    markov.setup()
    done, _ = run_ops(markov.ops(), 0, count=len(markov.block()))
    verify = workloads.VerifyIdentities(0, {"verify-identities": None})
    verify.setup()
    cycle = verify.cycle(random.Random(0))
    if cycle.failures:
        print("verify-identities cycle failed:", cycle.failures, file=sys.stderr)
        return 1
    pinned = {
        "closure-cap": closure,
        "markov-skein": markov.block_digest([(op, out) for op, out, _ in done]),
        "verify-identities": workloads.digest(cycle.exact),
    }
    (BENCH / "pinned.json").write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
