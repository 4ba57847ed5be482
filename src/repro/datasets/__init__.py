"""Synthetic dataset generators standing in for the paper's data sets.

The paper evaluates on DBLP co-authorship streams, a proprietary corporate IP
attack stream and GTGraph R-MAT streams.  DBLP-at-2008 and the IP attack data
are not redistributable, and 10^9-edge R-MAT streams are out of scope for a
pure-Python session, so this package generates scaled synthetic equivalents
that preserve the properties the paper's experiments depend on: heavy-tailed
edge frequencies (global heterogeneity) and correlated per-vertex frequencies
(local similarity).  The ``dblp``, ``ipattack`` and ``gtgraph`` module
docstrings each say what the generator stands in for and how.
"""

from repro.datasets.base import DatasetBundle, DatasetConfig
from repro.datasets.dblp import DBLPConfig, generate_dblp_stream
from repro.datasets.gtgraph import GTGraphConfig, generate_gtgraph_stream
from repro.datasets.ipattack import IPAttackConfig, generate_ip_attack_stream
from repro.datasets.registry import available_datasets, load_dataset
from repro.datasets.rmat import RMATConfig, generate_rmat_edges

__all__ = [
    "DBLPConfig",
    "DatasetBundle",
    "DatasetConfig",
    "GTGraphConfig",
    "IPAttackConfig",
    "RMATConfig",
    "available_datasets",
    "generate_dblp_stream",
    "generate_gtgraph_stream",
    "generate_ip_attack_stream",
    "generate_rmat_edges",
    "load_dataset",
]
