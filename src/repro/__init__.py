"""MQA reproduction: interactive multi-modal query answering with
retrieval-augmented LLMs (Wang et al., PVLDB 17(12), 2024).

The public API re-exports the pieces a downstream user needs:

>>> from repro import DatasetSpec, MQAConfig, MQASystem, generate_knowledge_base
>>> kb = generate_knowledge_base(DatasetSpec(domain="scenes", size=200))
>>> system = MQASystem.from_knowledge_base(kb, MQAConfig())   # doctest: +SKIP
>>> answer = system.ask("foggy clouds over mountains")        # doctest: +SKIP
"""

from repro.core import Answer, Coordinator, DialogueSession, MQAConfig, MQASystem, WeightMode
from repro.data import (
    DatasetSpec,
    KnowledgeBase,
    Modality,
    MultiModalObject,
    RawQuery,
    generate_knowledge_base,
    load_knowledge_base,
    save_knowledge_base,
)
from repro.utils import use_one_blas_thread

# numpy's OpenBLAS computes on the calling thread alone (DESIGN §7).  No
# module of the package makes a BLAS call at import, so this precedes the
# process's first one.
use_one_blas_thread()

__version__ = "1.0.0"

__all__ = [
    "Answer",
    "Coordinator",
    "DatasetSpec",
    "DialogueSession",
    "KnowledgeBase",
    "MQAConfig",
    "MQASystem",
    "Modality",
    "MultiModalObject",
    "RawQuery",
    "WeightMode",
    "__version__",
    "generate_knowledge_base",
    "load_knowledge_base",
    "save_knowledge_base",
]
