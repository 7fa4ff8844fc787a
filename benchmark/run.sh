#!/bin/bash
# Builds sleuthbench from source and runs it with the arguments given. The
# build cache and the binary stay inside the checkout, under .bench_build/;
# the first build of a checkout compiles the standard library too.
set -eu
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
go build -o "$build/sleuthbench" .
exec "$build/sleuthbench" "$@"
