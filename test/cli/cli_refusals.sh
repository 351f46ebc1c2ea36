#!/bin/sh
# Requests Service refuses must fail the in-process CLI the way they fail
# a daemon client: exit 1 with Service's message on stderr, nothing on
# stdout. A zero deadline covers loading and transpiling too: it exits
# 124 before any report line is printed.
#
# Usage: cli_refusals.sh PAQOC_EXE > out.txt   (compare with
# cli_refusals.expected; `dune runtest` runs exactly this)
exe=$1
for args in "bv --top-k 0" "bv --max-qubits 0" "bv -s accqoc-n3d3 --top-k 0" \
  "missing.qasm" "bv --deadline-seconds 0"; do
  echo "\$ paqoc compile $args"
  # shellcheck disable=SC2086
  "$exe" compile $args 2>&1
  echo "exit $?"
done
