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
    aggregate_runs,
    greedy_covering,
    hamming_distance,
    sampled_agreement_trial,
)
from .core import (
    MatchingGraph,
    PreferenceMatrices,
    Side,
    UserRef,
    build_matching_graph,
    degree,
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
    expected_optimal_estimate,
    optimal_matches,
)
from .policies import POLICIES, choose_S, make_policy
from .protocol import (
    FeedbackLedger,
    RoundRecord,
    RoundTrace,
    RunResult,
    area_under_curve,
    matches_curve,
    run_batch,
    run_protocol,
)

__all__ = [
    "__version__",
    "Side",
    "UserRef",
    "PreferenceMatrices",
    "MatchingGraph",
    "build_matching_graph",
    "degree",
    "delta_overload",
    "read_instance",
    "write_instance",
    "RoundRecord",
    "RoundTrace",
    "FeedbackLedger",
    "RunResult",
    "run_protocol",
    "run_batch",
    "matches_curve",
    "area_under_curve",
    "POLICIES",
    "make_policy",
    "choose_S",
    "ArrivalCounts",
    "arrival_counts",
    "optimal_matches",
    "expected_optimal_estimate",
    "hamming_distance",
    "greedy_covering",
    "CoveringResult",
    "sampled_agreement_trial",
    "SampleAgreementTrial",
    "aggregate_runs",
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
