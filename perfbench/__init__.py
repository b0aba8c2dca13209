"""The repository benchmark: serving and training workloads, end to end
and layer by layer.  Run ``python3 perfbench/run.py --help``."""
