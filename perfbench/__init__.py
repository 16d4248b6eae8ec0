"""The repository benchmark: seeded workloads, oracle checks and a
span-traced per-layer breakdown (see ``perfbench/README.md``)."""
