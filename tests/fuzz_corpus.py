"""The wide differential-fuzz corpus and its known-divergence list.

Not collected by tier-1 (the name is not ``test_*``); CI's ``fuzz-smoke``
job runs it as a script::

    PYTHONPATH=src python tests/fuzz_corpus.py

It sweeps ``generate_case`` seeds 0-1499 through ``run_case`` with the
sanitizer on (~3 min on 2 vCPUs) and requires the *set* of failing
seeds to equal ``KNOWN_DIVERGENCES`` — a new divergence and an
unnoticed fix both turn the job red.  ``tests/test_verify.py`` pins the
listed seeds individually as strict xfails.
"""

import random
import sys

from repro.verify.fuzzer import generate_case, run_case

CORPUS = range(1500)

#: Seeds whose strict-tier serial-vs-sharded comparison is known to
#: fail, with the diagnosis (ROADMAP item 1 has the full table).
KNOWN_DIVERGENCES = {
    136: "four shards on a 25-core mesh at T = 5, shard-closed, zero "
         "drift stalls on both sides, trace digest differs: the same "
         "window-parking class as 722 — it fails at window caps 64 and "
         "4 and at sub-round batches 1, 4 and 16, passes under the "
         "lockstep window (cap 1), and passes once the window horizon "
         "is dropped",
    722: "two shards, shard-closed, zero drift stalls on both sides, "
         "trace digest differs: window parking re-queues a core popped "
         "past the horizon at a different ring position next round, so "
         "host order inside the shard (and with it queue_state gossip "
         "and the dispatch choice) departs from the serial run's; it "
         "passes once parking is an order-preserving cut or the horizon "
         "is dropped, both of which move sharded_64x2's pinned digest",
}


def case_for(seed: int):
    return generate_case(random.Random(seed), seed=seed)


def main() -> int:
    failing = set()
    for seed in CORPUS:
        ok, report = run_case(case_for(seed))
        if not ok:
            failing.add(seed)
            print(f"seed {seed}: {report.get('mismatches', report.get('error'))}")
    known = set(KNOWN_DIVERGENCES)
    print(f"{len(CORPUS)} cases, failing seeds {sorted(failing)}, "
          f"known divergences {sorted(known)}")
    for seed in sorted(failing - known):
        print(f"NEW divergence: python -m repro fuzz --case "
              f"'{case_for(seed).to_json()}'")
    for seed in sorted(known - failing):
        print(f"seed {seed} now passes: remove it from KNOWN_DIVERGENCES "
              f"(tests/test_verify.py pins each entry as a strict xfail)")
    return 0 if failing == known else 1


if __name__ == "__main__":
    sys.exit(main())
