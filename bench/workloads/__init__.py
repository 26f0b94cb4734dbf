"""One module per workload; each exposes ``run(rep)``."""
