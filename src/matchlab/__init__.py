"""matchlab: a simulation lab for sequential reciprocal recommendation.

Hidden two-sided sign assignments, a two-half round protocol with uniform
arrivals, pluggable matchmaking policies, a max-flow yardstick for what an
all-knowing scheduler could have matched on the same trace, and the
clusterability analytics (Hamming coverings, sampled-agreement tests) that
explain when learning the matches fast is possible at all.
"""

__version__ = "0.1.0"

from .analysis import (
    CoveringResult,
    SampleAgreementTrial,
    greedy_covering,
    sampled_agreement_trial,
)
from .core import (
    MatchingGraph,
    PreferenceMatrices,
    build_matching_graph,
    delta_overload,
    read_instance,
    write_instance,
)
from .datagen import (
    ClusteredSpec,
    gen_adversarial_random,
    gen_block_lowerbound,
    gen_clustered,
    gen_random_bipartite,
    tiny_demo_instance,
)
from .errors import InputError, InternalCheckError, MatchlabError, ProtocolError
from .omniscient import (
    ArrivalCounts,
    arrival_counts,
    optimal_matches,
)
from .policies import POLICIES, choose_S, make_policy
from .protocol import (
    FeedbackLedger,
    RoundTrace,
    RunResult,
    run_protocol,
)

__all__ = [
    "__version__",
    "PreferenceMatrices",
    "MatchingGraph",
    "build_matching_graph",
    "delta_overload",
    "read_instance",
    "write_instance",
    "RoundTrace",
    "FeedbackLedger",
    "RunResult",
    "run_protocol",
    "POLICIES",
    "make_policy",
    "choose_S",
    "ArrivalCounts",
    "arrival_counts",
    "optimal_matches",
    "greedy_covering",
    "CoveringResult",
    "sampled_agreement_trial",
    "SampleAgreementTrial",
    "ClusteredSpec",
    "gen_clustered",
    "gen_adversarial_random",
    "gen_block_lowerbound",
    "gen_random_bipartite",
    "tiny_demo_instance",
    "MatchlabError",
    "InputError",
    "ProtocolError",
    "InternalCheckError",
]
