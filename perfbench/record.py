"""Record the reference outcome checksums the benchmark verifies against.

    python3 perfbench/record.py [--seeds 0-63] [--workloads a,b]

Runs each workload's spec list once per seed in a fresh child (as
``run.py`` does) and stores every spec's outcome checksum,
``payload_checksum(outcome_to_dict(outcome))``, in
``perfbench/references.json``, keeping seeds and workloads it does not
re-record.  A spec that raises or fails its audit aborts the recording:
a reference is only ever a passing outcome.  Record again only when a
change is meant to alter simulated outcomes, and say so in its review.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def seed_range(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    from repro.core.persistence import spec_to_dict

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-63"))
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = parser.parse_args()

    try:
        recorded = json.loads(run.REFERENCES.read_text())
    except OSError:
        recorded = {"format": 1, "workloads": {}}
    for name in args.workloads.split(","):
        table = recorded["workloads"].setdefault(name, {})
        for seed in args.seeds:
            specs = workloads.specs_for(name, seed)
            child = run.run_child(name, [spec_to_dict(s) for s in specs],
                                  trace=False, timeout=170)
            checksums = {}
            for result in child["results"]:
                if result["error"]:
                    print(f"{name} seed {seed} spec {result['spec']}: "
                          f"{result['error']}", file=sys.stderr)
                    return 1
                checksums.setdefault(result["spec"], result["checksum"])
            table[str(seed)] = [checksums[i] for i in range(len(specs))]
            print(f"{name} seed {seed}: {len(specs)} checksums", flush=True)
        recorded["workloads"][name] = dict(
            sorted(table.items(), key=lambda item: int(item[0])))
    run.REFERENCES.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
