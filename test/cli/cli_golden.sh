#!/bin/sh
# Pins the stdout of `paqoc compile` and `paqoc export-ir` byte for byte
# over a small matrix of schemes, devices and persistence modes (plus the
# exported IR documents). The only masked figure is the one on the
# wall-time-dependent "compile cost" line. A nonzero exit is recorded in
# the output, so it fails the comparison as well.
#
# Usage: cli_golden.sh PAQOC_EXE > out.txt   (compare with
# test/golden/cli_compile.txt; `dune runtest` runs exactly this)
set -e
exe=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

run() {
  echo "\$ paqoc $*"
  status=0
  "$exe" "$@" > stdout.txt || status=$?
  sed 's/^\(compile cost    : \)[0-9.]*/\1X/' stdout.txt
  [ "$status" = 0 ] || echo "exit $status"
}

run compile bv
run compile qft --scheme paqoc-minf --show-groups
run compile bb84 --canonical-cache --cache F.db
run compile bb84 --canonical-cache --cache F.db
run compile adder --device heavy-hex
run compile simon --scheme accqoc-n3d3
run compile bv --emit-ir bv.ir.json
cat bv.ir.json

printf 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\nrz(0.3) q[2];\n' \
  > g.qasm
run export-ir g.qasm g.ir.json --device 1x3 --check
cat g.ir.json
