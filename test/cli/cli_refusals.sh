#!/bin/sh
# Requests Service refuses must fail the in-process CLI the way they fail
# a daemon client: exit 1 with Service's message on stderr, nothing on
# stdout. A zero deadline covers loading and transpiling too: it exits
# 124 before any report line is printed. A circuit wider than its
# device is refused before transpiling (compile-suite stops at the first
# benchmark that does not fit), and `mine` reports unreadable QASM the
# way compile does.
#
# Usage: cli_refusals.sh PAQOC_EXE > out.txt   (compare with
# cli_refusals.expected; `dune runtest` runs exactly this)
exe=$1
for args in "bv --top-k 0" "bv --max-qubits 0" "bv -s accqoc-n3d3 --top-k 0" \
  "missing.qasm" "bv --deadline-seconds 0" "bv --device 2x2"; do
  echo "\$ paqoc compile $args"
  # shellcheck disable=SC2086
  "$exe" compile $args 2>&1
  echo "exit $?"
done
echo "\$ paqoc compile-suite --device 1x1"
"$exe" compile-suite --device 1x1 2>&1
echo "exit $?"
bad=$(mktemp)
printf 'OPENQASM 2.0;\nqreg q[2];\nnosuchgate q[0];\n' > "$bad"
echo "\$ paqoc mine bad.qasm"
"$exe" mine "$bad" 2>&1
echo "exit $?"
rm -f "$bad"
