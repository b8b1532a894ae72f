"""Layered benchmark of the FNAS reproduction.

``python3 fnasbench/run.py --workload <search|estimate|service|all>
--seed N --seconds S --trace 0|1`` runs one workload, checks its
outputs and prints every metric with its unit; see ``README.md``.
"""
