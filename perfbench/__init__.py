"""The repo benchmark: Graphulo's algorithms run through the simulated
database, in-process and on a 3-process cluster, plus a mixed
read/write serving loop.  Entry point: ``python3 perfbench/run.py``."""
