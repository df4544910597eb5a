"""Cross-relationship prediction heads over frozen encoders.

Layout:
    numerics     tensor autodiff core, layers, optimizer, gradient checking
    encoders     deterministic frozen text/image encoder stubs, feature files
    prompts      learnable multi-part prompt bank
    attention    token-to-part attention pooling
    heads        batched per-part cosine (ALIGN at one part), relation-matrix and MLP heads
    data         synthetic fine-grained benchmark generator and dataset files
    harness      config, model assembly, training, evaluation, attention export, model files
    experiments  head comparisons and part-count sweeps over many trainings
    analysis     class-embedding geometry and attention-to-part agreement
    cli          the xrhead command line front end
"""

from . import analysis, attention, container, data, encoders, errors, experiments, harness
from . import heads, numerics, prompts, report

__all__ = [
    "analysis",
    "attention",
    "container",
    "data",
    "encoders",
    "errors",
    "experiments",
    "harness",
    "heads",
    "numerics",
    "prompts",
    "report",
]
__version__ = "0.1.0"
