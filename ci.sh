#!/bin/sh
# Full local CI: build everything, run the test suite, then the
# correctness gate (nectar-lint + every scenario under nectar-vet),
# then the seeded chaos campaigns, the model-checking gate (schedule
# explorer over the seeded-bug suite plus the node-isolation audit),
# the failover gate (route-policy verifier plus the bounded-blackout
# ring flap campaign), the parallel-engine gate (the scaling smoke, a
# Fleet.Driver domain sweep at 1 and 2 domains gating delivery,
# per-partition conservation, handoff balance, crossings, build
# footprint and a determinism double-run, plus the heap-level
# isolation audit of a partitioned world), the fleet-scale gate (a
# 256-CAB incast world over 2 domains with conservation, determinism,
# footprint and slab-allocator pins), the perf-harness smoke (its
# assertions are deterministic delivery/batch counts, exact zero-copy
# byte counters, and the recorded BENCH_perf.json throughputs with
# tracing compiled in but disabled — wall-clock numbers are never
# gated in CI), the trace self-check (Chrome JSON parses, every
# data-path stage appears as a matched begin/end pair, no ring drops),
# and the benchmark's own tests (every workload reports every metric,
# same seed same simulation, the event slab moves words and nothing
# else).
set -eux

dune build @all
dune runtest
dune build @vet
dune build @chaos
dune build @check
dune build @failover
dune build @parallel
dune build @fleet
dune build @coll
dune exec bench/main.exe -- perf-smoke
dune exec bin/nectar_cli.exe -- trace --check --out /tmp/nectar_trace_ci.json
python3 perfbench/test/test_bench.py
