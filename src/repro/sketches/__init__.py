"""Stream synopsis substrates.

This subpackage implements, from scratch, the sketch data structures the paper
builds on:

* :class:`~repro.sketches.countmin.CountMinSketch` — the synopsis gSketch
  partitions (paper Figure 1, Equation 1).
* :class:`~repro.sketches.exact.ExactCounter` — exact dictionary counter used
  as the ground-truth oracle in tests and experiments.
"""

from repro.sketches.base import FrequencySketch
from repro.sketches.countmin import CountMinSketch
from repro.sketches.exact import ExactCounter
from repro.sketches.hashing import PairwiseHashFamily, key_to_uint64

__all__ = [
    "CountMinSketch",
    "ExactCounter",
    "FrequencySketch",
    "PairwiseHashFamily",
    "key_to_uint64",
]
