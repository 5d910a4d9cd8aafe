"""Mixed-precision quantization sandbox.

Builds Hadamard-domain quantized layers with low-rank and block-Monarch
correction branches, and searches per-layer bit-widths with a tree of
Pareto queues evaluated under an environment bit-width.  Everything runs
against a seeded synthetic network so results are exactly reproducible.
"""
