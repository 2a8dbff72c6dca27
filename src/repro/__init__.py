"""repro — a full reproduction of FEDEX (VLDB 2022).

FEDEX explains data-exploration steps: given an EDA operation (filter,
group-by, join, union) it finds the most interesting columns of the result
and the sets-of-rows of the input that contribute most to that
interestingness, and renders them as captioned visualizations.

Quickstart::

    from repro import ExplainableDataFrame, Comparison
    from repro.datasets import load_spotify

    songs = ExplainableDataFrame(load_spotify(n_rows=20_000, seed=0))
    popular = songs.filter(Comparison("popularity", ">", 65))
    print(popular.explain().render_text())

Subpackages
-----------
``repro.dataframe``   columnar dataframe substrate (pandas replacement)
``repro.operators``   EDA operations, exploratory steps, SQL-ish parser
``repro.stats``       KS statistic, dispersion, ranking metrics
``repro.core``        the FEDEX algorithms (Algorithm 1)
``repro.viz``         chart specs, ASCII rendering, JSON export
``repro.explain``     one-line explanation wrapper
``repro.obs``         telemetry: structured traces + central metrics registry
``repro.session``     session layer: shared cache store + per-tenant views
``repro.service``     multi-tenant serving front end (workers, admission)
``repro.serving``     asyncio HTTP front end, replica fleet, shared cache tier
``repro.storage``     columnar dataset store (mmap frames, descriptors)
``repro.baselines``   SeeDB, RATH-style, Interestingness-Only baselines
``repro.datasets``    synthetic Spotify / Bank / Products+Sales generators
``repro.workloads``   the paper's 30 evaluation queries
``repro.experiments`` harnesses regenerating every figure of the paper
"""

from .core.config import FedexConfig, exact_config, sampling_config
from .core.engine import ExplanationReport, FedexExplainer, explain_step
from .core.explanation import Explanation
from .dataframe import Between, Column, Comparison, DataFrame, IsIn
from .explain.explainable import ExplainableDataFrame, explain_dataframe
from .obs import tracing
from .operators import ExploratoryStep, Filter, GroupBy, Join, Union, parse_query
from .service import ExplanationService, ServiceConfig
from .serving import ExplanationServer, ReplicaFleet, SharedCacheTier, TokenAuthenticator
from .session import CacheStore, ExplanationSession, SessionCache
from .storage import DatasetStore

__version__ = "1.0.0"

__all__ = [
    "Between",
    "CacheStore",
    "Column",
    "Comparison",
    "DataFrame",
    "DatasetStore",
    "ExplainableDataFrame",
    "Explanation",
    "ExplanationReport",
    "ExplanationServer",
    "ExplanationService",
    "ExplanationSession",
    "ExploratoryStep",
    "FedexConfig",
    "FedexExplainer",
    "Filter",
    "GroupBy",
    "IsIn",
    "Join",
    "ReplicaFleet",
    "ServiceConfig",
    "SessionCache",
    "SharedCacheTier",
    "TokenAuthenticator",
    "Union",
    "__version__",
    "exact_config",
    "explain_dataframe",
    "explain_step",
    "parse_query",
    "sampling_config",
    "tracing",
]
