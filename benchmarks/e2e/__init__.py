"""The repo's end-to-end benchmark (see README.md in this directory).

``run.py`` is the one-run entry point ``BENCHMARK.json`` names;
``python -m benchmarks.e2e`` repeats it in child processes to produce the
committed baseline, the layer table and the noise floor.
"""
