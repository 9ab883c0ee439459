"""liquidbench: one end-to-end + per-layer benchmark for the Liquid stack.

Five workloads, floor-estimated wall-clock, exact counts, one traced run;
see README.md in this directory.
"""
