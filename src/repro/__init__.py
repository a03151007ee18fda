"""Reproduction of "Reinforcement Learning Enhanced Weighted Sampling for
Accurate Subgraph Counting on Fully Dynamic Graph Streams" (ICDE 2023).

Subpackages: ``core`` (WSD/GPS kernels + estimators), ``baselines`` (Triest,
ThinkD, WRS over random pairing), ``graphs`` (dataset proxies + stream
constructors), ``exact`` (incremental ground truth + DuckDB oracle SQL), ``rl``
(numpy DDPG weight learning), ``harness`` (Spark trial fan-out + per-table
drivers), ``streaming`` (Structured Streaming ingestion). See DESIGN.md.
"""
