"""End-to-end benchmark of the simulator: four paper workloads, host and
simulated metrics, and an outside-in per-layer trace.  See README.md."""
