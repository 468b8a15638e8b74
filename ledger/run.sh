#!/bin/sh
# Build the ledger from source and run it with the given arguments, from
# the root of the repository:
#   sh ledger/run.sh --workload reads --seed 42 --seconds 10 --trace 0
exec dune exec --root . --display quiet -- ./ledger/ledger.exe "$@"
