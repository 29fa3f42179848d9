"""Spiking binary neuron that detects causal precursors of rare target events.

A single threshold neuron on a discrete 1 ms clock learns, through the
combination of anti-Hebbian depression (tied to its own tight spike
sequences) and dopamine-gated potentiation (tied to a distinguished
reward channel), which of its input channels predict an upcoming target
event. The package also ships the ping-pong benchmark environment, the
133-channel spike encoder, the prediction-accuracy metric and a genetic
search over the four free plasticity parameters.
"""

from .plasticity import PlasticityConfig, weight_of, resource_for_weight, effective_rates
from .neuron import Detector, DetectorState
from .records import EpisodeRecord
from .ga import Genome, GaConfig, sample_genome, evaluate, evolve, run_ga

__all__ = [
    "PlasticityConfig",
    "weight_of",
    "resource_for_weight",
    "effective_rates",
    "Detector",
    "DetectorState",
    "EpisodeRecord",
    "Genome",
    "GaConfig",
    "sample_genome",
    "evaluate",
    "evolve",
    "run_ga",
]
