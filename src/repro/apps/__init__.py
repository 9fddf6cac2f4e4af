"""Reference applications: the paper's running examples.

* :mod:`repro.apps.wordcount` — the Storm streaming word count
  (Sections I-B, VI-A, VIII-A);
* :mod:`repro.apps.queries` — the reporting-server queries of Figure 6;
* :mod:`repro.apps.ad_network` — the Bloom ad-tracking network
  (Sections I-B, VI-B, VIII-B);
* :mod:`repro.apps.kvs` — the Section III-B convergence-without-confluence
  example (LWW store feeding a replicated cache).
"""

from repro.apps.ad_network import (
    AdNetworkResult,
    AdWorkload,
    ad_network_dataflow,
    run_ad_network,
)
from repro.apps.kvs import (
    KvsResult,
    KvsWorkload,
    LwwKvs,
    SnapshotCache,
    run_kvs,
)
from repro.apps.queries import (
    QUERY_MATRIX_APPS,
    QUERY_NAMES,
    QUERY_SEAL_KEYS,
    CacheTier,
    make_report_module,
)
from repro.apps.wordcount import (
    CommitBolt,
    CountBolt,
    EagerCommitBolt,
    EagerCountBolt,
    SplitterBolt,
    TweetSpout,
    build_wordcount_topology,
    run_wordcount,
    wordcount_dataflow,
)

__all__ = [
    "AdNetworkResult",
    "AdWorkload",
    "ad_network_dataflow",
    "run_ad_network",
    "KvsResult",
    "KvsWorkload",
    "LwwKvs",
    "SnapshotCache",
    "run_kvs",
    "QUERY_MATRIX_APPS",
    "QUERY_NAMES",
    "QUERY_SEAL_KEYS",
    "CacheTier",
    "make_report_module",
    "CommitBolt",
    "CountBolt",
    "EagerCommitBolt",
    "EagerCountBolt",
    "SplitterBolt",
    "TweetSpout",
    "build_wordcount_topology",
    "run_wordcount",
    "wordcount_dataflow",
]
