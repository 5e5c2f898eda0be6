"""Unbiased loss estimation and randomized combination of denoisers.

The package answers one question: given two black-box denoisers for a known
discrete memoryless channel, can you do essentially as well as the better of
the two without seeing the clean sequence?  Plain estimate-minimizing
selection can fail badly for globally sensitive denoisers; selecting between
Bernoulli-smoothed versions restores the guarantee.

The API lives in the submodules, all but ``cli`` imported with the package:
``channel``, ``denoisers``, ``losses``, ``combine``, ``harness`` (experiment
configs, trials and oracles), ``spec`` (the strict spec reader), ``rng``,
``record`` (the immutable base of the small data types) and ``verify``.
"""

__version__ = "0.1.0"

from . import (  # noqa: E402,F401
    channel, combine, denoisers, harness, losses, record, rng, spec, verify,
)
