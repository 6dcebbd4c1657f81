"""matchlab: a simulation lab for sequential reciprocal recommendation.

Hidden two-sided sign assignments, a two-half round protocol with uniform
arrivals, pluggable matchmaking policies, a max-flow yardstick for what an
all-knowing scheduler could have matched on the same trace, and the
clusterability analytics (Hamming coverings, sampled-agreement tests) that
explain when learning the matches fast is possible at all.

The public names below load lazily (PEP 562): ``import matchlab`` loads no
submodule and no numpy, and ``matchlab.run_protocol`` imports
``matchlab.protocol`` on first use.  So each ``matchlab`` command loads
only the modules it runs (see ``matchlab.cli``).
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {
    "PreferenceMatrices": "core",
    "MatchingGraph": "core",
    "build_matching_graph": "core",
    "delta_overload": "core",
    "read_instance": "core",
    "write_instance": "core",
    "RoundTrace": "rundir",
    "FeedbackLedger": "protocol",
    "RunResult": "protocol",
    "run_protocol": "protocol",
    "POLICIES": "policies",
    "make_policy": "policies",
    "choose_S": "policies",
    "ArrivalCounts": "omniscient",
    "arrival_counts": "omniscient",
    "optimal_matches": "omniscient",
    "greedy_covering": "analysis",
    "CoveringResult": "analysis",
    "sampled_agreement_trial": "analysis",
    "SampleAgreementTrial": "analysis",
    "ClusteredSpec": "datagen",
    "gen_clustered": "datagen",
    "gen_adversarial_random": "datagen",
    "gen_block_lowerbound": "datagen",
    "gen_random_bipartite": "datagen",
    "tiny_demo_instance": "datagen",
    "MatchlabError": "errors",
    "InputError": "errors",
    "ProtocolError": "errors",
    "InternalCheckError": "errors",
}

__all__ = ["__version__", *_SUBMODULE]


def __getattr__(name):
    # a name outside the table raises, so ``from matchlab import core`` imports the submodule
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
