"""End-to-end and per-layer benchmark of the HiFi-DRAM reproduction.

A package of its own, outside the program: it drives ``repro`` only
through public entry points and measures from its own code.  See
``bench/README.md`` and ``python -m bench --help``.
"""
