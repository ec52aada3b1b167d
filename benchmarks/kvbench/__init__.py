"""kvbench: host CPU cost per simulated GET/PUT/SCAN, end to end and by layer.

See ``README.md`` here; ``run.py`` is the command ``BENCHMARK.json`` names.
"""
