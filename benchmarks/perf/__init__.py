"""The repo's performance benchmark (see benchmarks/perf/README.md).

Seven workloads (four of them in the driver's gate), three gated end-to-end
metrics, calibrated against the host's speed, and a per-layer ledger,
all measured from outside through public functions of ``src/repro``.
``BENCHMARK.json`` at the repo root names the entry point
(``benchmarks/perf/run.py``, one workload per invocation);
``PYTHONPATH=src python -m benchmarks.perf`` is the all-workloads front
end with the repeatability and comparison tools.
"""
