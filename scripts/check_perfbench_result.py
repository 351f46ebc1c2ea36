#!/usr/bin/env python3
"""Check the result line of one perfbench run.

Usage: python3 perfbench/run.py ... | python3 scripts/check_perfbench_result.py NAME

Reads the run's standard output, takes its last non-empty line (the
benchmark's JSON result) and exits 1 unless it reports "correct": true
and "failed": 0. NAME only labels the messages. Used by
`make perfbench-smoke`.
"""
import json
import sys


def main():
    name = sys.argv[1] if len(sys.argv) > 1 else "perfbench"
    lines = [l for l in sys.stdin.read().splitlines() if l.strip()]
    if not lines:
        print("%s: no output" % name, file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("%s: last line is not JSON: %s" % (name, lines[-1]),
              file=sys.stderr)
        return 1
    correct = result.get("correct")
    failed = result.get("failed")
    attempted = result.get("attempted")
    if correct is not True or failed != 0:
        print("%s: correct=%s failed=%s of %s attempted"
              % (name, correct, failed, attempted), file=sys.stderr)
        return 1
    print("%s: correct, %s attempted, 0 failed" % (name, attempted))
    return 0


if __name__ == "__main__":
    sys.exit(main())
