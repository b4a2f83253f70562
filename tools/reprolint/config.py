"""Reprolint configuration: what to scan and what the rules key off.

The defaults describe *this* repository (``src/repro/**``); tests point the
same passes at fixture corpora by building a custom :class:`LintConfig`.

Registering a new hot-path function or glossary class is a one-line edit
here — see ``docs/development.md`` for the conventions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

#: Allocation calls the hot-path rule flags (``np.<name>`` / ``numpy.<name>``).
ALLOC_CALLS = ("empty", "zeros", "concatenate", "full", "ones")

#: Free functions that reach external/user code; calling one while holding a
#: lock risks re-entrancy and unbounded hold times (LOCK002).
EXTERNAL_CALL_NAMES = ("fingerprint_array", "dispatch")

#: Functions whose temporaries must borrow from ``ScratchArena`` — the fused
#: selection chain, the hierarchical gather, and the streaming memo-replay
#: merge.  Keys are ``module.dotted.path:qualname`` relative to ``src/``.
DEFAULT_HOT_FUNCTIONS = (
    "repro.service.fusion:fused_group_topk",
    "repro.service.fusion:_serve_fused",
    "repro.service.fusion:_serve_fallback",
    "repro.service.streaming:merge_candidate_pool",
    "repro.service.streaming:StreamingTopK._consume_piece",
    "repro.distributed.multigpu:MultiGpuDrTopK._hierarchical_gather",
)

#: Report dataclasses mirrored by the ``docs/operations.md`` glossary, as
#: ``class name -> module path`` (relative to the repo root).  Each class
#: needs a ``<!-- reprolint:glossary <Class> -->`` marker ahead of its table.
DEFAULT_GLOSSARY_CLASSES: Dict[str, str] = {
    "DispatchReport": "src/repro/service/dispatcher.py",
    "SaveReport": "src/repro/service/dispatcher.py",
    "RestoreReport": "src/repro/service/dispatcher.py",
    "CacheInfo": "src/repro/service/cache.py",
    "TenantPolicy": "src/repro/service/tenancy.py",
    "ScrubReport": "src/repro/service/scrubber.py",
}


@dataclass
class LintConfig:
    """One reprolint run's inputs: root, file set, and rule registries."""

    root: Path
    #: Globs (relative to ``root``) selecting the python files to scan.
    scan_globs: Tuple[str, ...] = ("src/repro/**/*.py",)
    #: ``module:qualname`` entries for the hot-path allocation rule.
    hot_functions: Tuple[str, ...] = DEFAULT_HOT_FUNCTIONS
    #: Glossary classes and the modules defining them.
    glossary_classes: Dict[str, str] = field(
        default_factory=lambda: dict(DEFAULT_GLOSSARY_CLASSES)
    )
    #: The markdown file holding the glossary tables.
    glossary_doc: str = "docs/operations.md"
    #: Run the tracked-artifact hygiene rule (needs a git checkout).
    check_hygiene: bool = True
    #: Attribute-guarding inference: an attribute is lock-guarded when at
    #: least ``min_guarded_accesses`` accesses happen under one lock and they
    #: make up at least ``guarded_ratio`` of all its accesses.
    min_guarded_accesses: int = 2
    guarded_ratio: float = 0.75

    def files(self) -> List[Path]:
        """Every python file the AST passes scan, sorted for determinism."""
        seen = set()
        out: List[Path] = []
        for pattern in self.scan_globs:
            for path in sorted(self.root.glob(pattern)):
                if path.suffix == ".py" and path not in seen and path.is_file():
                    seen.add(path)
                    out.append(path)
        return out

    def rel(self, path: Path) -> str:
        """``path`` relative to the scan root, as a forward-slash string."""
        try:
            return path.relative_to(self.root).as_posix()
        except ValueError:
            return path.as_posix()

    def module_of(self, path: Path) -> str:
        """Dotted module path for a scanned file (``src/`` stripped)."""
        rel = self.rel(path)
        parts = Path(rel).with_suffix("").parts
        if parts and parts[0] == "src":
            parts = parts[1:]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)
