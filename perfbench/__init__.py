"""The repository benchmark: training workloads, metrics and tracing."""
