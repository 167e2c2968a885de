"""Run counters, kept apart from the layers that add to them.

``dynamics`` and ``model`` add to ``COUNTERS`` as they work; the CLI writes
the change over each command's run to ``run_meta.json``, so a command reads
0 for a layer it never loaded.
"""

# Bernoulli cells read and Philox blocks drawn, the points the conditional
# base sampler drew, and the bit cells the orbit windows filled, in this
# process so far
COUNTERS = {"bits_drawn": 0, "philox_blocks": 0, "sampler_draws": 0, "window_cells": 0}
