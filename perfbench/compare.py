#!/usr/bin/env python3
"""Compare two benchmark results like for like.

Usage: python3 perfbench/compare.py BASE.json NEW.json

Each file is a full result written to .bench_results/ by a run. Results
are only compared when workload, seed, trace mode and fingerprint (the
identity of the point or request set) all agree; otherwise the script
refuses and exits 2. Prints each metric's base and new value and the
new/base ratio, and whether the simulated-statistics digests match.
"""

import json
import sys


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        base = json.load(f)
    with open(sys.argv[2]) as f:
        new = json.load(f)
    for key in ("workload", "seed", "trace", "fingerprint"):
        if base.get(key) != new.get(key):
            print(f"refusing to compare: {key} differs "
                  f"({base.get(key)!r} vs {new.get(key)!r})",
                  file=sys.stderr)
            return 2
    print(f"workload={base['workload']} seed={base['seed']} "
          f"fingerprint={base['fingerprint']}")
    same = base["digest"] == new["digest"]
    print(f"simulated statistics digest: "
          f"{'identical' if same else 'DIFFERENT'}")
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            print(f"  {name}: missing in NEW")
            continue
        ratio = n["value"] / b["value"] if b["value"] else float("nan")
        print(f"  {name}: {b['value']:.6g} -> {n['value']:.6g} "
              f"{b['unit']} (new/base {ratio:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
