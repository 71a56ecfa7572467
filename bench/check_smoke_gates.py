#!/usr/bin/env python3
"""Usage: check_smoke_gates.py BENCH_<name>.json...

Fails unless every file parses and has a non-empty top-level "gates" array
in which every gate has "pass": true.
"""
import json
import sys

failures = []
for path in sys.argv[1:]:
    try:
        with open(path) as f:
            gates = json.load(f).get("gates", [])
    except (OSError, ValueError) as e:
        failures.append(f"{path}: {e}")
        continue
    print(f"{path}: {len(gates)} gates")
    if not gates:
        failures.append(f"{path}: no gates recorded")
    failures += [f"{path}: gate {g.get('name')} failed: {g}"
                 for g in gates if g.get("pass") is not True]
for failure in failures:
    print(f"FAIL: {failure}")
sys.exit(1 if failures else 0)
